package trace

import (
	"runtime"
	"testing"
	"unsafe"

	"loadsched/internal/uop"
)

// packUops packs len(us) uops (≤ ChunkUops) into one sealed chunk, uop i
// carrying Seq seqs[i] and StoreID sids[i], or its position i and its
// store's rank when the slice is nil.
func packUops(us []uop.UOp, seqs, sids []int64) *packedChunk {
	var e chunkEncoder
	var stas int64
	e.begin()
	for i := range us {
		seq, sid := int64(i), storeID(&stas, us[i].Kind())
		if seqs != nil {
			seq = seqs[i]
		}
		if sids != nil {
			sid = sids[i]
		}
		e.add(&us[i], seq, sid)
	}
	return e.seal()
}

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
		payload := packUops(us, nil, nil).marshal(nil)
		var c packedChunk
		if err := unmarshalChunk(payload, &c, ChunkUops); err != nil {
			t.Fatalf("unmarshal chunk at %d: %v", off, err)
		}
		var v ChunkView
		if err := c.decode(&v, 0); err != nil {
			t.Fatalf("decode chunk at %d: %v", off, err)
		}
		if len(v.us) != len(us) {
			t.Fatalf("chunk at %d: decoded %d uops, want %d", off, len(v.us), len(us))
		}
		for i, w := range us {
			if got := v.UOp(i); got != w {
				t.Fatalf("uop %d: got %+v want %+v", off+i, got, w)
			}
		}
	}
}

// TestPackedNonDenseSeq exercises the explicit-Seq stream: monotonic but
// gapped Seq values (as an imported trace might carry) must round-trip,
// into the view's seqs beside unchanged uops.
func TestPackedNonDenseSeq(t *testing.T) {
	us := Collect(Profile{Name: "packed-gap", Seed: 5}, 100)
	seqs := make([]int64, len(us))
	for i := range seqs {
		seqs[i] = int64(i) * 7 // monotonic, non-dense
	}
	payload := packUops(us, seqs, nil).marshal(nil)
	var c packedChunk
	if err := unmarshalChunk(payload, &c, ChunkUops); err != nil {
		t.Fatal(err)
	}
	if c.dense {
		t.Fatal("gapped Seq chunk marked dense")
	}
	var v ChunkView
	if err := c.decode(&v, 0); err != nil {
		t.Fatal(err)
	}
	for i, w := range us {
		if got := v.UOp(i); got != w {
			t.Fatalf("uop %d: got %+v want %+v", i, got, w)
		}
		if v.seqs[i] != seqs[i] {
			t.Fatalf("uop %d: Seq %d, want %d", i, v.seqs[i], seqs[i])
		}
	}
}

// TestUnmarshalChunkRejectsCorruption feeds the payload parser mangled
// inputs; every one must error rather than panic or mis-decode.
func TestUnmarshalChunkRejectsCorruption(t *testing.T) {
	us := Collect(Profile{Name: "packed-bad", Seed: 9}, 256)
	good := packUops(us, nil, nil).marshal(nil)
	check := func(name string, payload []byte) {
		t.Helper()
		var c packedChunk
		err := unmarshalChunk(payload, &c, ChunkUops)
		if err == nil {
			var v ChunkView
			err = c.decode(&v, 0)
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
			_ = c.decode(&v, 0)
		}
		mangled[i] = save
	}
}

// TestRecordingFootprint pins what a recording holds: each chunk once, as
// a 2-byte word per uop and a 4-byte address per load and STA, with no
// decoded or packed copy beside them. The accounted bytes must say so, and
// the live heap must hold no chunk where chunks are mapped outside it.
func TestRecordingFootprint(t *testing.T) {
	const n = 16 * ChunkUops
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	r := newRecording(Profile{Name: "footprint", Seed: 33})
	defer r.release()
	c := &Cursor{rec: r}
	for seen := 0; seen < n; {
		us, _, _ := c.NextBatchRef()
		seen += len(us)
	}
	// The cursor's decode buffer is one chunk of flat uops whatever the
	// recording's length; it is counted apart from the recording.
	decodeBuf := int64(ChunkUops * unsafe.Sizeof(uop.UOp{}))
	live := float64(int64(heap())-int64(before)-decodeBuf) / n
	runtime.KeepAlive(c)

	if r.Len() != n {
		t.Fatalf("recording holds %d uops, want %d", r.Len(), n)
	}
	if b := r.SidecarBytes(); b != 0 {
		t.Fatalf("recording holds %d side-car bytes, want none", b)
	}
	perUop := float64(r.PackedBytes()) / float64(r.Len())
	if perUop < 2 || perUop > 4.5 {
		t.Fatalf("recording accounts %.2f bytes/uop, want 2 (a word) to 4.5", perUop)
	}
	// The live heap holds the generator with its program and templates
	// and the chunk slots and, where chunks stay on the heap, the chunks
	// themselves; a chunk mapped back onto the heap, a decoded copy of the
	// stream (12 bytes/uop), or a second decode buffer would not fit under
	// this bound.
	bound := 2.0
	if !offHeap {
		bound += 4.5
	}
	if live > bound {
		t.Fatalf("recording retains %.2f heap bytes/uop beside the %d-byte decode buffer, want <= %.1f", live, decodeBuf, bound)
	}
	t.Logf("recording footprint: %.2f accounted, %.2f live heap bytes/uop over %d uops, plus a %d-byte decode buffer", perUop, live, n, decodeBuf)
}

// TestCursorNextBatchMatchesNext pins the batch path (NextBatchRef) to the
// scalar one, including batches that start mid-chunk after ragged runs of
// Next and the private recycled view past the sharing cap.
func TestCursorNextBatchMatchesNext(t *testing.T) {
	defer func(old int) { maxSharedUops = old }(maxSharedUops)
	maxSharedUops = 2 * ChunkUops

	p := Profile{Name: "packed-batch", Seed: 44}
	scalar, bulk := Replay(p), Replay(p)
	total := 5 * ChunkUops // crosses the cap into the recycled private view
	skips := []int{1, 3, 64, 100, 0, ChunkUops - 1}
	for consumed, si := 0, 0; consumed < total; si++ {
		for k := 0; k < skips[si%len(skips)]; k++ {
			if got, want := bulk.Next(), scalar.Next(); got != want {
				t.Fatalf("uop %d: bulk %+v, scalar %+v", consumed, got, want)
			}
			consumed++
		}
		dst, _, _ := bulk.NextBatchRef()
		n := len(dst)
		if n <= 0 {
			t.Fatalf("NextBatchRef returned %d", n)
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
