package trace

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestReplayMatchesGenerator pins the recording to the generator for every
// built-in trace: a cursor must emit the exact stream a fresh generator
// would, through a run of Next calls that leaves it mid-chunk and then
// batches to past the third chunk, so every static uop's template, branch
// bits and address come back through the recorded words.
func TestReplayMatchesGenerator(t *testing.T) {
	const mid, total = 1000, 3*ChunkUops + ChunkUops/2
	for _, grp := range Groups() {
		for _, p := range grp.Traces {
			r := newRecording(p)
			c, g := &Cursor{rec: r}, New(p)
			for i := 0; i < mid; i++ {
				if want, got := g.Next(), c.Next(); got != want {
					t.Fatalf("%s/%s uop %d: replay %+v, generator %+v", grp.Name, p.Name, i, got, want)
				}
			}
			for pos := mid; pos < total; {
				us, _, _ := c.NextBatchRef()
				for i := range us {
					if want := g.Next(); us[i] != want {
						t.Fatalf("%s/%s uop %d: replay %+v, generator %+v", grp.Name, p.Name, pos+i, us[i], want)
					}
				}
				pos += len(us)
			}
			if r.Len() < 3*ChunkUops {
				t.Fatalf("%s/%s: %d uops recorded", grp.Name, p.Name, r.Len())
			}
			r.release()
		}
	}
}

// TestReplayCursorsIndependent checks that cursors do not share position:
// interleaved readers each see the stream from the start.
func TestReplayCursorsIndependent(t *testing.T) {
	p := Profile{Name: "replay-indep", Seed: 7}
	a, b := Replay(p), Replay(p)
	// Advance a past b, then check b still replays from its own position.
	for i := 0; i < 500; i++ {
		a.Next()
	}
	g := New(p)
	for i := 0; i < 1000; i++ {
		want := g.Next()
		if got := b.Next(); got != want {
			t.Fatalf("uop %d: cursor b %+v, want %+v", i, got, want)
		}
	}
}

// TestReplaySharesRecording checks the point of the exercise: two cursors
// over one profile share a single recording, generated once.
func TestReplaySharesRecording(t *testing.T) {
	p := Profile{Name: "replay-shared", Seed: 11}
	a := Replay(p)
	for i := 0; i < 3000; i++ {
		a.Next()
	}
	r := Materialize(p)
	n := r.Len()
	if n < 3000 {
		t.Fatalf("recording holds %d uops after 3000 reads", n)
	}
	b := Replay(p)
	for i := 0; i < 3000; i++ {
		b.Next()
	}
	if got := r.Len(); got != n {
		t.Fatalf("second cursor grew the recording: %d -> %d uops", n, got)
	}
}

// TestReplayBeyondCap checks the fallback: a cursor that outruns
// maxSharedUops switches to a private generator with no seam in the stream,
// and the shared recording stops growing at the cap.
func TestReplayBeyondCap(t *testing.T) {
	defer func(old int) { maxSharedUops = old }(maxSharedUops)
	maxSharedUops = 1 << 12

	p := Profile{Name: "replay-cap", Seed: 99}
	g := New(p)
	c := Replay(p)
	total := maxSharedUops * 3
	for i := 0; i < total; i++ {
		want, got := g.Next(), c.Next()
		if got != want {
			t.Fatalf("uop %d (cap %d): replay %+v, generator %+v", i, maxSharedUops, got, want)
		}
	}
	if n := Materialize(p).Len(); n > maxSharedUops {
		t.Fatalf("recording grew to %d uops past the cap %d", n, maxSharedUops)
	}
}

// concurrentRuns numbers TestReplayConcurrent's runs, so each run (one
// per -count) names a profile no earlier run has recorded.
var concurrentRuns atomic.Int64

// TestReplayConcurrent races many cursors over one cold recording; run
// under -race this checks chunk production and publication. Half the
// goroutines replay with Next against the generator, half with
// NextBatchRef against a private Batches adapter, and every one runs past
// a shrunk sharing cap into its private tail.
func TestReplayConcurrent(t *testing.T) {
	defer func(old int) { maxSharedUops = old }(maxSharedUops)
	maxSharedUops = 2 * ChunkUops

	p := Profile{Name: fmt.Sprintf("replay-conc-%d", concurrentRuns.Add(1)), Seed: 3}
	const total = 4 * ChunkUops
	want := Collect(p, total)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(batched bool) {
			defer wg.Done()
			c := Replay(p)
			if !batched {
				for i, u := range want {
					if got := c.Next(); got != u {
						errs <- fmt.Sprintf("Next diverged at uop %d: %+v, want %+v", i, got, u)
						return
					}
				}
				return
			}
			ref := NewBatches(New(p))
			for pos := 0; pos < total; {
				us, _, _ := c.NextBatchRef()
				wantUs, _, _ := ref.NextBatchRef()
				if len(us) != len(wantUs) {
					errs <- fmt.Sprintf("batch at uop %d: %d uops, want %d", pos, len(us), len(wantUs))
					return
				}
				for i := range us {
					if us[i] != wantUs[i] {
						errs <- fmt.Sprintf("NextBatchRef diverged at uop %d: %+v, want %+v", pos+i, us[i], wantUs[i])
						return
					}
				}
				pos += len(us)
			}
		}(w%2 == 1)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestBatchesMatchReplay pins the scalar-source adapter from stream
// position 0: wrapping a plain generator must yield the same uops, batch
// for batch, as the shared recording's cursor, and both must return the
// placeholder results nil and 0.
func TestBatchesMatchReplay(t *testing.T) {
	p := Profile{Name: "batches-eq", Seed: 95}
	ad, c := NewBatches(New(p)), Replay(p)
	for chunk := 0; chunk < 4; chunk++ {
		us, deps, zero := ad.NextBatchRef()
		wantUs, wantDeps, wantZero := c.NextBatchRef()
		if len(us) != len(wantUs) || deps != nil || wantDeps != nil || zero != 0 || wantZero != 0 {
			t.Fatalf("chunk %d: %d uops, placeholders %v, %d; want %d, nil, 0 from both",
				chunk, len(us), deps, zero, len(wantUs))
		}
		for i := range us {
			if us[i] != wantUs[i] {
				t.Fatalf("chunk %d uop %d: %+v, want %+v", chunk, i, us[i], wantUs[i])
			}
		}
	}
}

// BenchmarkRecording measures first-touch recording, what the first replay
// of a profile in a process pays: each op builds a fresh recording of gcc
// (unregistered, so every op is cold), produces its first
// benchRecordChunks chunks, and releases it. It reports
// ns and heap-allocated bytes per recorded uop, generator construction
// included; mapped chunks are not heap bytes.
func BenchmarkRecording(b *testing.B) {
	const benchRecordChunks = 16
	p, _ := TraceByName(GroupSpecInt95, "gcc")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := newRecording(p)
		r.chunk(benchRecordChunks - 1)
		r.release()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	uops := float64(b.N) * benchRecordChunks * ChunkUops
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/uops, "ns/uop")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/uops, "B/uop")
}
