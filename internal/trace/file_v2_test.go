package trace

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"loadsched/internal/uop"
)

// TestV1V2CrossDecode pins cross-version equivalence: the same stream
// written in both formats must replay identically, across wrap-around
// too.
func TestV1V2CrossDecode(t *testing.T) {
	p := Profile{Name: "xdec", Seed: 17}
	const n = ChunkUops + 700 // full chunk + short tail chunk
	var v1, v2 bytes.Buffer
	if err := writeTraceV1(&v1, New(p), n); err != nil {
		t.Fatal(err)
	}
	if err := WriteTrace(&v2, New(p), n); err != nil {
		t.Fatal(err)
	}
	r1, err := NewStreamReader(bytes.NewReader(v1.Bytes()))
	if err != nil {
		t.Fatalf("v1 reader: %v", err)
	}
	r2, err := NewStreamReader(bytes.NewReader(v2.Bytes()))
	if err != nil {
		t.Fatalf("v2 reader: %v", err)
	}
	if r1.Uops() != n || r2.Uops() != n {
		t.Fatalf("lengths %d/%d, want %d", r1.Uops(), r2.Uops(), n)
	}
	if r1.Version() != 1 || r2.Version() != 2 {
		t.Fatalf("versions %d/%d, want 1/2", r1.Version(), r2.Version())
	}
	for i := 0; i < 5*n/2; i++ { // crosses two wraps
		a, b := r1.Next(), r2.Next()
		if a != b {
			t.Fatalf("uop %d: v1 %+v, v2 %+v", i, a, b)
		}
	}
}

// TestBuiltinFirstChunkRoundTrip carries every field of each built-in
// profile's first chunk through the op byte and through a v2 file: each
// uop's kind, access size and branch flags rebuild its op byte, its access
// size is one the generator emits (0 or 8), and the file replays every uop
// field for field. The file holds one uop more than the chunk, so a chunk
// that ends on an STA is not cut off before its STD.
func TestBuiltinFirstChunkRoundTrip(t *testing.T) {
	for _, g := range Groups() {
		for _, p := range g.Traces {
			us := Collect(p, ChunkUops)
			for i := range us {
				u := &us[i]
				if s := u.Size(); s != 0 && s != wordSize {
					t.Fatalf("%s/%s uop %d: access size %d, the generator emits 0 or %d", g.Name, p.Name, i, s, wordSize)
				}
				if op := uop.NewOp(u.Kind(), u.Size()).WithBranch(u.Taken(), u.Mispredicted()); op != u.Op {
					t.Fatalf("%s/%s uop %d: fields %s size %d taken %v mispredicted %v rebuild op %#x, want %#x",
						g.Name, p.Name, i, u.Kind(), u.Size(), u.Taken(), u.Mispredicted(), op, u.Op)
				}
			}
			var buf bytes.Buffer
			if err := WriteTrace(&buf, New(p), ChunkUops+1); err != nil {
				t.Fatal(err)
			}
			r, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%s/%s: %v", g.Name, p.Name, err)
			}
			for i := range us {
				if got := r.Next(); got != us[i] {
					t.Fatalf("%s/%s uop %d: file replays %+v, want %+v", g.Name, p.Name, i, got, us[i])
				}
			}
		}
	}
}

// TestStreamReaderMatchesReader pins the constant-memory reader to the
// whole-file reference decode for both format versions, across
// wrap-around.
func TestStreamReaderMatchesReader(t *testing.T) {
	p := Profile{Name: "stream-eq", Seed: 23}
	const n = 2*ChunkUops + 123
	for _, tc := range []struct {
		name  string
		write func(w io.Writer) error
	}{
		{"v2", func(w io.Writer) error { return WriteTrace(w, New(p), n) }},
		{"v1", func(w io.Writer) error { return writeTraceV1(w, New(p), n) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.write(&buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "t.lsut")
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			ref, err := decodeTraceFile(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			sr, err := StreamTraceFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer sr.Close()
			if sr.Uops() != n || sr.pass != int64(len(ref)) || len(ref) < n-1 {
				t.Fatalf("stream length %d and pass %d, reference pass %d, want %d", sr.Uops(), sr.pass, len(ref), n)
			}
			want := replayReference(ref)
			for i := 0; i < 5*n/2; i++ {
				w, got := want(), sr.Next()
				if got != w {
					t.Fatalf("uop %d: stream %+v, reference %+v", i, got, w)
				}
			}
		})
	}
}

// TestStreamReaderNextBatch pins the stream reader's batch path
// (NextBatchRef) to its scalar path across chunk boundaries and a wrap.
func TestStreamReaderNextBatch(t *testing.T) {
	p := Profile{Name: "stream-batch", Seed: 29}
	const n = ChunkUops + 50
	path := filepath.Join(t.TempDir(), "t.lsut")
	if err := WriteTraceFile(path, p, n); err != nil {
		t.Fatal(err)
	}
	scalar, err := StreamTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer scalar.Close()
	bulk, err := StreamTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bulk.Close()
	total := 2*n + 7
	for consumed := 0; consumed < total; {
		batch, _, _ := bulk.NextBatchRef()
		m := len(batch)
		if m <= 0 {
			t.Fatalf("NextBatchRef returned %d", m)
		}
		for i := 0; i < m; i++ {
			want := scalar.Next()
			if batch[i] != want {
				t.Fatalf("uop %d: bulk %+v, scalar %+v", consumed+i, batch[i], want)
			}
		}
		consumed += m
	}
}

// TestV2RejectsCorruptCRC flips one payload byte of a valid v2 file; the
// reader must refuse the file and name the CRC.
func TestV2RejectsCorruptCRC(t *testing.T) {
	p := Profile{Name: "crc", Seed: 31}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, New(p), 600); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Header is 16 bytes, frame 8; corrupt a byte well inside the first
	// chunk's payload.
	data[16+8+40] ^= 0x01
	_, err := NewStreamReader(bytes.NewReader(data))
	if err == nil || !strings.Contains(err.Error(), "crc") {
		t.Errorf("NewStreamReader on a corrupt-CRC file: err %v, want a crc mismatch", err)
	}
}

// TestV2RejectsTruncation cuts a valid v2 file at every structural
// boundary class; the reader must error, never hang or panic.
func TestV2RejectsTruncation(t *testing.T) {
	p := Profile{Name: "trunc2", Seed: 37}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, New(p), ChunkUops+100); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	cuts := []int{15, 16, 20, 23, 100, len(data) / 2, len(data) - 5, len(data) - 1}
	for _, cut := range cuts {
		short := data[:cut]
		if _, err := NewStreamReader(bytes.NewReader(short)); err == nil {
			t.Errorf("NewStreamReader accepted file truncated at %d", cut)
		}
	}
}

// TestV2RejectsNonMonotonicSeq: no decoded uop carries the file's Seq, but
// the reader still requires it to strictly increase and names the record
// that breaks it. The helper that writes the file with a duplicate Seq
// must write exactly WriteTrace's bytes when given the positions.
func TestV2RejectsNonMonotonicSeq(t *testing.T) {
	p := Profile{Name: "mono", Seed: 41}
	us := Collect(p, 100)
	var want, got bytes.Buffer
	if err := WriteTrace(&want, New(p), len(us)); err != nil {
		t.Fatal(err)
	}
	if err := writeChunkV2(&got, us, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("writeChunkV2 with positional Seqs differs from WriteTrace")
	}

	seqs := make([]int64, len(us))
	for i := range seqs {
		seqs[i] = int64(i)
	}
	seqs[40] = seqs[39] // duplicate
	var buf bytes.Buffer
	if err := writeChunkV2(&buf, us, seqs, nil); err != nil {
		t.Fatal(err)
	}
	_, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
	if err == nil || err.Error() != "trace: record 40 breaks Seq monotonicity (39 after 39)" {
		t.Errorf("NewStreamReader on a duplicate Seq: err %v, want record 40 named", err)
	}
	if _, err := decodeTraceFile(buf.Bytes()); err == nil {
		t.Error("reference decode accepted a duplicate Seq")
	}
}

// TestV1RejectsDuplicateSeq is the v1 twin of TestV2RejectsNonMonotonicSeq:
// a flat-record file whose record 40 repeats record 39's Seq is rejected
// with the same error.
func TestV1RejectsDuplicateSeq(t *testing.T) {
	var buf bytes.Buffer
	if err := writeTraceV1(&buf, New(Profile{Name: "mono1", Seed: 41}), 100); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	copy(data[16+40*recordSize:][:8], data[16+39*recordSize:][:8])
	_, err := NewStreamReader(bytes.NewReader(data))
	if err == nil || err.Error() != "trace: record 40 breaks Seq monotonicity (39 after 39)" {
		t.Errorf("NewStreamReader on a duplicate Seq: err %v, want record 40 named", err)
	}
	if _, err := decodeTraceFile(data); err == nil {
		t.Error("reference decode accepted a duplicate Seq")
	}
}

// TestInspectTraceFile pins the trace-info metadata: counts, chunking,
// and the packed density the format is judged on.
func TestInspectTraceFile(t *testing.T) {
	p := Profile{Name: "inspect", Seed: 43}
	const n = 2*ChunkUops + 10
	path := filepath.Join(t.TempDir(), "t.lsut")
	if err := WriteTraceFile(path, p, n); err != nil {
		t.Fatal(err)
	}
	fi, err := InspectTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Version != 2 || fi.Uops != n || fi.Chunks != 3 {
		t.Fatalf("version/uops/chunks = %d/%d/%d, want 2/%d/3", fi.Version, fi.Uops, fi.Chunks, n)
	}
	if bpu := fi.BytesPerUop(); bpu <= 0 || bpu > 16 {
		t.Fatalf("bytes/uop = %.2f, want (0, 16]", bpu)
	}
	var kinds int64
	for _, k := range fi.KindCounts {
		kinds += k
	}
	if kinds != n {
		t.Fatalf("kind counts sum to %d, want %d", kinds, n)
	}
	st, _ := os.Stat(path)
	if fi.FileBytes != st.Size() {
		t.Fatalf("FileBytes %d, stat %d", fi.FileBytes, st.Size())
	}
}

// TestStreamReplayConstantRSS is the bounded-memory regression test: a
// file-backed trace larger than the in-process sharing cap must replay
// through the stream reader with heap growth bounded by the chunk ring,
// not the trace length (2.4M uops ≈ 150 MB decoded would fail loudly).
func TestStreamReplayConstantRSS(t *testing.T) {
	p := Profile{Name: "rss", Seed: 47}
	total := 2*maxSharedUops + 5*ChunkUops/2 // > the shared cap, ragged tail
	path := filepath.Join(t.TempDir(), "big.lsut")
	if err := WriteTraceFile(path, p, total); err != nil {
		t.Fatal(err)
	}
	sr, err := StreamTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	if sr.Uops() != int64(total) {
		t.Fatalf("stream length %d, want %d", sr.Uops(), total)
	}

	// Warm one chunk so lazily allocated ring buffers exist, then measure.
	for i := 0; i < ChunkUops; i++ {
		sr.Next()
	}
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	for i := ChunkUops; i < total+ChunkUops; i++ { // full pass + wrap
		sr.Next()
	}
	after := heap()
	grew := int64(after) - int64(before)
	// The live set is one payload buffer + one decoded view (~200 KiB);
	// allow generous slack for runtime noise, but an O(trace) replay
	// (tens of MB) must fail.
	const bound = 4 << 20
	if grew > bound {
		t.Fatalf("heap grew %d bytes replaying %d uops, want <= %d (O(chunk ring))", grew, total, bound)
	}
	t.Logf("heap growth over %d uops: %d bytes", total, grew)
}
