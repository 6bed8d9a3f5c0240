package trace

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"loadsched/internal/uop"
)

// fuzzTraceSeeds builds the shared corpus: well-formed traces in both file
// versions plus structural mutations (truncation, version relabeling, CRC
// damage) that exercise every rejection path, the three hostile store
// numberings of hostileStoreFiles, and a record of access size 3, which a
// uop's op byte has no code for, in each version.
func fuzzTraceSeeds(f *testing.F) {
	f.Helper()
	var v2, v1 bytes.Buffer
	if err := WriteTrace(&v2, New(Profile{Name: "seed", Seed: 1}), 64); err != nil {
		f.Fatal(err)
	}
	if err := writeTraceV1(&v1, New(Profile{Name: "seed", Seed: 1}), 64); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Add(v1.Bytes())
	f.Add(v2.Bytes()[:20])
	f.Add(v2.Bytes()[:len(v2.Bytes())-3]) // truncated mid-CRC
	f.Add([]byte("LSUT"))
	f.Add([]byte{})
	relabel := append([]byte{}, v1.Bytes()...)
	relabel[4] = 2 // v1 body labeled v2: chunk framing garbage
	f.Add(relabel)
	crc := append([]byte{}, v2.Bytes()...)
	crc[len(crc)-10] ^= 0x40 // damage inside the last chunk's payload/CRC
	f.Add(crc)
	reg := append([]byte{}, v1.Bytes()...)
	reg[16+33] = uop.MaxArchRegs // first record's Dst: past the register file
	f.Add(reg)
	for _, data := range hostileStoreFiles(f) {
		f.Add(data)
	}
	size := append([]byte{}, v1.Bytes()...)
	size[16+36] = 3 // first record's access size
	f.Add(size)
	c := packUops(Collect(Profile{Name: "seed", Seed: 1}, 64), nil, nil)
	c.sizes[7] = 3
	var sized bytes.Buffer
	if err := writePackedV2(&sized, c); err != nil {
		f.Fatal(err)
	}
	f.Add(sized.Bytes())
}

// fuzzCheckUops drains a bounded number of uops from a reader, asserting
// the invariant it promises on accepted files: registers inside the
// register file, across at least one wrap.
func fuzzCheckUops(t *testing.T, length int, next func() uop.UOp) {
	n := length*2 + 4
	if n > 4096 {
		n = 4096
	}
	for i := 0; i < n; i++ {
		if u := next(); !validUop(&u) {
			t.Fatalf("uop %d: %+v names an invalid register", i, u)
		}
	}
}

// validUop reports whether u's registers are below uop.MaxArchRegs: what a
// trace reader promises of every uop it accepts, and the generator of every
// uop it emits. Its kind needs no check, since the op byte holds no other.
func validUop(u *uop.UOp) bool {
	return u.Dst < uop.MaxArchRegs && u.Src1 < uop.MaxArchRegs && u.Src2 < uop.MaxArchRegs
}

// FuzzReader hardens the replay path the engine consumes, NextBatchRef,
// against corrupt input: on any file the reader accepts, every batch must
// hold the reference decode's uops, with the placeholder results nil and
// 0, across at least one wrap, never panicking or hanging.
func FuzzReader(f *testing.F) {
	fuzzTraceSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		sr, err := NewStreamReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		defer sr.Close()
		ref, err := decodeTraceFile(data)
		if err != nil {
			t.Fatalf("reader accepted a file the reference rejects: %v", err)
		}
		want := replayReference(ref)
		n := min(len(ref)*2+4, 4096)
		for consumed := 0; consumed < n; {
			buf, deps, zero := sr.NextBatchRef()
			if len(buf) == 0 || deps != nil || zero != 0 {
				t.Fatalf("NextBatchRef returned %d uops and placeholders %v, %d", len(buf), deps, zero)
			}
			for i := range buf {
				if w := want(); buf[i] != w {
					t.Fatalf("uop %d: %+v, want %+v", consumed+i, buf[i], w)
				}
			}
			consumed += len(buf)
		}
	})
}

// FuzzStreamReader hardens the trace-file reader against corrupt input: it
// must either return an error or produce a reader whose records all have
// valid kinds and registers, never panic or hang. It must also accept
// exactly the inputs the whole-file reference decode accepts, and replay
// the same uops.
func FuzzStreamReader(f *testing.F) {
	fuzzTraceSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		sr, serr := NewStreamReader(bytes.NewReader(data))
		ref, rerr := decodeTraceFile(data)
		if (serr == nil) != (rerr == nil) {
			t.Fatalf("readers disagree: stream err %v, reference err %v", serr, rerr)
		}
		if serr != nil {
			return
		}
		defer sr.Close()
		if len(ref) == 0 {
			t.Fatal("a file with no records must be an error")
		}
		if sr.Uops() != int64(len(ref)) {
			t.Fatalf("stream sees %d uops, reference %d", sr.Uops(), len(ref))
		}
		want := replayReference(ref)
		fuzzCheckUops(t, len(ref), func() uop.UOp {
			w, got := want(), sr.Next()
			if got != w {
				t.Fatalf("streams diverge: %+v vs %+v", got, w)
			}
			return got
		})
	})
}

// FuzzGeneratorProfile hardens generator construction against odd profile
// values: any profile that survives withDefaults must generate valid uops
// without panicking, unless its program has more static uops than a
// recording numbers, which New refuses by name.
func FuzzGeneratorProfile(f *testing.F) {
	f.Add(int64(1), 4, 2, 3, 0.2, 0.1)
	f.Add(int64(99), 64, 12, 1, 0.5, 0.4)
	f.Fuzz(func(t *testing.T, seed int64, funcs, blockLen, depth int, loadFrac, storeFrac float64) {
		if funcs < 1 || funcs > 128 || blockLen < 1 || blockLen > 32 || depth < 1 || depth > 12 {
			t.Skip()
		}
		if loadFrac < 0 || storeFrac < 0 || loadFrac+storeFrac > 0.9 {
			t.Skip()
		}
		p := Profile{
			Name: "fuzz", Seed: seed,
			NumFuncs: funcs, MeanBlockLen: blockLen, MaxCallDepth: depth,
			LoadFrac: loadFrac, StoreFrac: storeFrac,
		}
		if n := len(buildProgram(p).tmpl); n > maxStaticUops {
			if msg := newPanic(p); !strings.Contains(msg, fmt.Sprint(n)) {
				t.Fatalf("New of a %d-uop program: panic %q, want one naming the count", n, msg)
			}
			return
		}
		g := New(p)
		for i := 0; i < 2000; i++ {
			if u := g.Next(); !validUop(&u) {
				t.Fatalf("uop %d: %+v names an invalid register", i, u)
			}
		}
	})
}
