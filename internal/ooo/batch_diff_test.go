package ooo_test

import (
	"fmt"
	"math/rand"
	"testing"

	"loadsched/internal/ooo"
	"loadsched/internal/runner"
	"loadsched/internal/trace"
)

// Differential tests for batched execution: running a job under Pool.Run —
// whatever unit its grouping lands it in, on a fresh or a recycled engine —
// must be observably absent, producing Stats byte-identical to the same
// machine running alone. Any divergence here is state leaking between jobs
// that share a unit's worker or a pooled engine.

// soloStats runs each job alone on a fresh engine, the reference the
// batched runs must reproduce exactly.
func soloStats(jobs []runner.Job) []ooo.Stats {
	out := make([]ooo.Stats, len(jobs))
	for i, j := range jobs {
		out[i] = ooo.NewEngine(j.Machine.Config(), trace.Replay(j.Profile)).Run(j.Uops)
	}
	return out
}

// TestPoolRunMatchesSoloDiff extends the scheduler differential to the
// batch runner: randomized machines over mixed workloads, executed at
// worker counts that produce unit sizes of 1, 3 and a full same-workload
// sweep, must match solo runs per engine.
func TestPoolRunMatchesSoloDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(0xba7c4))
	profiles := ooo.DiffProfilesForBatch(rng, 2)
	const warmup, uops = 1000, 4000

	// Six machines on profile 0 (one full-sweep unit at workers=1), three
	// on profile 1.
	var jobs []runner.Job
	for i := 0; i < 9; i++ {
		prof := profiles[0]
		if i >= 6 {
			prof = profiles[1]
		}
		jobs = append(jobs, runner.Job{
			Machine: runner.NewMachine(ooo.DiffConfigForBatch(rng), warmup),
			Profile: prof,
			Uops:    uops,
		})
	}
	solo := soloStats(jobs)

	// workers=1 → units of 6 and 3; workers=3 → units of 3; workers=9 →
	// every engine alone in its unit.
	for _, workers := range []int{1, 3, 9} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			got := runner.NewIsolated(workers, nil).Run(jobs)
			for i := range jobs {
				if got[i] != solo[i] {
					t.Errorf("job %d diverged under batch (workers=%d)\nbatch: %+v\nsolo:  %+v",
						i, workers, got[i], solo[i])
				}
			}
		})
	}
}

// TestPoolRunDedupsInUnit pins in-unit deduplication: identical describable
// jobs landing in one unit must simulate once (the repeats are memo hits)
// and still return per-job results identical to solo execution.
func TestPoolRunDedupsInUnit(t *testing.T) {
	prof := ooo.CoincidentProfileForBatch()
	job := runner.Job{Machine: runner.NewMachine(ooo.DefaultConfig, 500), Profile: prof, Uops: 3000}
	jobs := []runner.Job{job, job, job, job}
	solo := soloStats(jobs[:1])
	p := runner.NewIsolated(1, runner.NewCache()) // one unit of 4, memoized
	got := p.Run(jobs)
	for i := range got {
		if got[i] != solo[0] {
			t.Errorf("deduped job %d diverged: %+v != %+v", i, got[i], solo[0])
		}
	}
	c := p.Counters()
	if c.Simulated != 1 {
		t.Errorf("Simulated = %d, want 1 (in-unit dedup)", c.Simulated)
	}
	if c.MemoHits+c.Coalesced != 3 {
		t.Errorf("MemoHits+Coalesced = %d+%d, want 3 (the repeats)", c.MemoHits, c.Coalesced)
	}
}
