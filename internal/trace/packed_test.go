package trace

import (
	"testing"

	"loadsched/internal/uop"
)

// TestPackedChunkRoundTrip pins the codec: generator uops packed chunk by
// chunk, marshaled to the file payload form, unmarshaled and decoded, must
// reproduce the stream exactly.
func TestPackedChunkRoundTrip(t *testing.T) {
	p := Profile{Name: "packed-rt", Seed: 21}
	want := Collect(p, 3*ChunkUops/2) // one full chunk + one partial
	for off := 0; off < len(want); off += ChunkUops {
		end := off + ChunkUops
		if end > len(want) {
			end = len(want)
		}
		us := want[off:end]
		payload := packUops(us).marshal(nil)
		var c packedChunk
		if err := unmarshalChunk(payload, &c, ChunkUops); err != nil {
			t.Fatalf("unmarshal chunk at %d: %v", off, err)
		}
		v, err := c.decodeChunk()
		if err != nil {
			t.Fatalf("decode chunk at %d: %v", off, err)
		}
		if v.Len() != len(us) {
			t.Fatalf("chunk at %d: decoded %d uops, want %d", off, v.Len(), len(us))
		}
		for i, w := range us {
			if got := v.UOp(i); got != w {
				t.Fatalf("uop %d: got %+v want %+v", off+i, got, w)
			}
		}
	}
}

// TestPackedNonDenseSeq exercises the explicit-Seq stream: monotonic but
// gapped Seq values (as an imported trace might carry) must round-trip.
func TestPackedNonDenseSeq(t *testing.T) {
	us := Collect(Profile{Name: "packed-gap", Seed: 5}, 100)
	for i := range us {
		us[i].Seq = int64(i) * 7 // monotonic, non-dense
	}
	payload := packUops(us).marshal(nil)
	var c packedChunk
	if err := unmarshalChunk(payload, &c, ChunkUops); err != nil {
		t.Fatal(err)
	}
	if c.dense {
		t.Fatal("gapped Seq chunk marked dense")
	}
	v, err := c.decodeChunk()
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range us {
		if got := v.UOp(i); got != w {
			t.Fatalf("uop %d: got %+v want %+v", i, got, w)
		}
	}
}

// TestUnmarshalChunkRejectsCorruption feeds the payload parser mangled
// inputs; every one must error rather than panic or mis-decode.
func TestUnmarshalChunkRejectsCorruption(t *testing.T) {
	us := Collect(Profile{Name: "packed-bad", Seed: 9}, 256)
	good := packUops(us).marshal(nil)
	check := func(name string, payload []byte) {
		t.Helper()
		var c packedChunk
		err := unmarshalChunk(payload, &c, ChunkUops)
		if err == nil {
			var v ChunkView
			err = c.decode(&v)
		}
		if err == nil {
			t.Errorf("%s: corrupt payload accepted", name)
		}
	}
	check("empty", nil)
	check("truncated half", good[:len(good)/2])
	check("truncated one byte", good[:len(good)-1])
	trailing := append(append([]byte{}, good...), 0)
	check("trailing byte", trailing)
	// Exhaustive single-byte corruption: every offset flipped to 0xff must
	// either error out or decode cleanly (a base varint's value changing is
	// legitimate) — never panic. Kind and flag columns specifically must
	// reject 0xff, which the spot checks above rely on.
	mangled := append([]byte{}, good...)
	for i := range mangled {
		save := mangled[i]
		mangled[i] = 0xff
		var c packedChunk
		if err := unmarshalChunk(mangled, &c, ChunkUops); err == nil {
			var v ChunkView
			_ = c.decode(&v)
		}
		mangled[i] = save
	}
}

// TestRecordingPackedDensity pins the tentpole target: the shared
// recording must cost at most 16 bytes per uop (it packs to ~9 in
// practice, versus 64 for the old []uop.UOp buffer).
func TestRecordingPackedDensity(t *testing.T) {
	p := Profile{Name: "packed-density", Seed: 33}
	c := Replay(p)
	const n = 16 * ChunkUops
	for i := 0; i < n; i++ {
		c.Next()
	}
	r := Materialize(p)
	if r.Len() < n {
		t.Fatalf("recording holds %d uops, want at least %d", r.Len(), n)
	}
	perUop := float64(r.PackedBytes()) / float64(r.Len())
	if perUop > 16 {
		t.Fatalf("recording costs %.2f bytes/uop, want <= 16", perUop)
	}
	t.Logf("recording density: %.2f bytes/uop over %d uops", perUop, r.Len())
}

// TestCursorNextBatchMatchesNext pins the bulk path to the scalar one,
// including ragged batch sizes across chunk boundaries and the private
// recycled view past the sharing cap.
func TestCursorNextBatchMatchesNext(t *testing.T) {
	defer func(old int) { maxSharedUops = old }(maxSharedUops)
	maxSharedUops = 2 * ChunkUops

	p := Profile{Name: "packed-batch", Seed: 44}
	scalar, bulk := Replay(p), Replay(p)
	total := 5 * ChunkUops // crosses the cap into the recycled private view
	sizes := []int{1, 3, 64, 100, ChunkUops, ChunkUops + 9}
	buf := make([]uop.UOp, ChunkUops+9)
	for consumed, si := 0, 0; consumed < total; si++ {
		dst := buf[:sizes[si%len(sizes)]]
		n := bulk.NextBatch(dst)
		if n <= 0 {
			t.Fatalf("NextBatch returned %d for dst of %d", n, len(dst))
		}
		for i := 0; i < n; i++ {
			want := scalar.Next()
			if dst[i] != want {
				t.Fatalf("uop %d: bulk %+v, scalar %+v", consumed+i, dst[i], want)
			}
		}
		consumed += n
	}
}
