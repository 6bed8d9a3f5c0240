package trace

import (
	"path/filepath"
	"testing"
	"unsafe"

	"loadsched/internal/uop"
)

// refDeps recomputes one uop's side-car entry from the absolute stream
// history — the brute-force ground truth the streaming analyzer must match.
type refDeps struct {
	pos       int64
	lastWrite [uop.MaxArchRegs]int64 // position+1; 0 = none
	stores    int64                  // STAs so far: the youngest store's id
}

func (r *refDeps) expect(u *uop.UOp) (src1, src2 uint16, lastStore int64) {
	back := func(reg uop.Reg) uint16 {
		if lw := r.lastWrite[reg]; lw != 0 {
			if d := r.pos - lw + 1; d < uop.DepSaturated {
				return uint16(d)
			}
			return uop.DepSaturated
		}
		return 0
	}
	src1, src2, lastStore = back(u.Src1), back(u.Src2), r.stores
	if u.Dst != uop.NoReg {
		r.lastWrite[u.Dst] = r.pos + 1
	}
	if u.Kind == uop.STA {
		r.stores++
	}
	r.pos++
	return
}

// TestCursorDepsMatchGroundTruth pins NextBatchRef — producer deltas and
// absolute last-store ids — to a brute-force recomputation over
// the whole stream, across chunk boundaries and past the sharing cap into
// the recycled private tail view.
func TestCursorDepsMatchGroundTruth(t *testing.T) {
	defer func(old int) { maxSharedUops = old }(maxSharedUops)
	maxSharedUops = 2 * ChunkUops

	p := Profile{Name: "deplink-truth", Seed: 91}
	c := Replay(p)
	var ref refDeps
	total := 5 * ChunkUops // crosses the cap into the private tail
	for consumed := 0; consumed < total; {
		buf, deps, base := c.NextBatchRef()
		n := len(buf)
		if n <= 0 || len(deps) != n {
			t.Fatalf("NextBatchRef returned %d uops, %d deps", n, len(deps))
		}
		for i := 0; i < n; i++ {
			u, d := &buf[i], &deps[i]
			s1, s2, ls := ref.expect(u)
			if d.Src1Back != s1 || d.Src2Back != s2 {
				t.Fatalf("uop %d: producer deltas (%d,%d), want (%d,%d)",
					consumed+i, d.Src1Back, d.Src2Back, s1, s2)
			}
			if got := base + int64(d.LastStore); got != ls {
				t.Fatalf("uop %d: last store %d (base %d + %d), want %d",
					consumed+i, got, base, d.LastStore, ls)
			}
		}
		consumed += n
	}
}

// TestCursorDepsMatchAcrossConsumers checks that a deps-consuming cursor
// and a plain Next cursor observe the same uop stream (the side-car rides
// along without perturbing replay) and that two cursors — one of which
// forced the shared side-car build — see identical deps.
func TestCursorDepsMatchAcrossConsumers(t *testing.T) {
	p := Profile{Name: "deplink-share", Seed: 92}
	a, b, scalar := Replay(p), Replay(p), Replay(p)
	for consumed := 0; consumed < 3*ChunkUops; {
		buf, deps, base := a.NextBatchRef()
		n := len(buf)
		_, deps2, base2 := b.NextBatchRef()
		if base2 != base || len(deps2) != n {
			t.Fatalf("batches diverged: base %d vs %d, %d vs %d deps", base2, base, len(deps2), n)
		}
		for i := range deps2 {
			if deps2[i] != deps[i] {
				t.Fatalf("uop %d: deps diverged between cursors", consumed+i)
			}
		}
		for i := 0; i < n; i++ {
			if want := scalar.Next(); buf[i] != want {
				t.Fatalf("uop %d: deps cursor perturbs the uop stream", consumed+i)
			}
		}
		consumed += n
	}
	if Materialize(p).SidecarBytes() == 0 {
		t.Fatal("shared side-car bytes not accounted")
	}
}

// TestBatchesMatchReplay pins the scalar-source adapter from stream
// position 0: wrapping a plain generator must yield the same uops, side-car
// entries and store bases, batch for batch, as the shared recording's
// cursor.
func TestBatchesMatchReplay(t *testing.T) {
	p := Profile{Name: "batches-eq", Seed: 95}
	ad, c := NewBatches(New(p)), Replay(p)
	for chunk := 0; chunk < 4; chunk++ {
		us, deps, base := ad.NextBatchRef()
		wantUs, wantDeps, wantBase := c.NextBatchRef()
		if len(us) != len(wantUs) || len(deps) != len(wantDeps) || base != wantBase {
			t.Fatalf("chunk %d: %d uops, %d deps, base %d; want %d, %d, %d",
				chunk, len(us), len(deps), base, len(wantUs), len(wantDeps), wantBase)
		}
		for i := range us {
			if us[i] != wantUs[i] || deps[i] != wantDeps[i] {
				t.Fatalf("chunk %d uop %d: %+v %+v, want %+v %+v",
					chunk, i, us[i], deps[i], wantUs[i], wantDeps[i])
			}
		}
	}
}

// TestStreamReaderDepsMatchGroundTruth pins the streaming file replay's
// side-car across wrap-around: register deltas keep reaching through the
// wrap (the analyzer's alias state persists, matching the renamer), the
// store count keeps rising from pass to pass as the engine's does, and the
// reported metrics move.
func TestStreamReaderDepsMatchGroundTruth(t *testing.T) {
	p := Profile{Name: "deplink-stream", Seed: 93}
	path := filepath.Join(t.TempDir(), "deps.trace")
	const fileUops = ChunkUops + ChunkUops/2
	if err := WriteTraceFile(path, p, fileUops); err != nil {
		t.Fatal(err)
	}
	r, err := StreamTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var ref refDeps
	total := 3*fileUops + ChunkUops/4 // several wraps
	for consumed := 0; consumed < total; {
		buf, deps, base := r.NextBatchRef()
		n := len(buf)
		if n <= 0 || len(deps) != n {
			t.Fatalf("NextBatchRef returned %d uops, %d deps", n, len(deps))
		}
		for i := 0; i < n; i++ {
			s1, s2, ls := ref.expect(&buf[i])
			if deps[i].Src1Back != s1 || deps[i].Src2Back != s2 {
				t.Fatalf("uop %d: producer deltas (%d,%d), want (%d,%d)",
					consumed+i, deps[i].Src1Back, deps[i].Src2Back, s1, s2)
			}
			if got := base + int64(deps[i].LastStore); got != ls {
				t.Fatalf("uop %d: last store %d, want %d", consumed+i, got, ls)
			}
		}
		consumed += n
	}
	if r.SidecarBytes() == 0 || r.SidecarBuildNanos() < 0 {
		t.Fatalf("side-car metrics missing: bytes=%d nanos=%d", r.SidecarBytes(), r.SidecarBuildNanos())
	}
}

// TestRecordingSidecarDensity pins the side-car's memory cost (the whole
// recording's is TestRecordingFootprint): exactly 6 bytes per uop of
// recorded chunk, and the Dep struct itself must stay at the 6 bytes the
// accounting assumes.
func TestRecordingSidecarDensity(t *testing.T) {
	if sz := unsafe.Sizeof(uop.Dep{}); int64(sz) != depSize || depSize != 6 {
		t.Fatalf("uop.Dep is %d bytes, accounting assumes %d, want 6", sz, depSize)
	}
	p := Profile{Name: "sidecar-density", Seed: 94}
	c := Replay(p)
	const n = 4 * ChunkUops
	for consumed := 0; consumed < n; {
		us, _, _ := c.NextBatchRef()
		consumed += len(us)
	}
	r := Materialize(p)
	built := r.SidecarBytes()
	if built < int64(n)*depSize {
		t.Fatalf("side-car bytes %d, want at least %d", built, int64(n)*depSize)
	}
	perUop := float64(built) / float64(r.Len())
	if perUop > 6 {
		t.Fatalf("side-car costs %.2f bytes/uop, want <= 6", perUop)
	}
	t.Logf("side-car density: %.2f bytes/uop over %d uops", perUop, r.Len())
}
