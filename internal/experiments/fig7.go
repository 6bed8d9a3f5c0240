package experiments

import (
	"fmt"

	"loadsched/internal/memdep"
	"loadsched/internal/runner"
	"loadsched/internal/stats"
	"loadsched/internal/trace"
)

// Fig7Result holds per-trace speedups of the ordering schemes over the
// Traditional baseline.
type Fig7Result struct {
	// Traces are the SysmarkNT trace names (cd ex fl pd pm pp wd wp).
	Traces []string
	// Speedup maps each scheme to its per-trace speedups (parallel to
	// Traces).
	Speedup map[memdep.Scheme][]float64
}

// Average returns a scheme's geometric-mean speedup across traces.
func (r *Fig7Result) Average(s memdep.Scheme) float64 {
	return stats.GeoMean(r.Speedup[s])
}

// AverageCounted returns the geometric-mean speedup plus the number of
// non-positive per-trace values the mean had to exclude; a non-zero count
// flags a degenerate simulation that table and record producers surface.
func (r *Fig7Result) AverageCounted(s memdep.Scheme) (float64, int) {
	return stats.GeoMeanCounted(r.Speedup[s])
}

// Fig7 reproduces Figure 7 (Speedup vs Memory Ordering Scheme) on the
// SysmarkNT traces with the baseline machine and the paper's reference CHT
// (2K entries, 4-way, 2-bit counters). The paper's curve: Postponing ≈ +6%,
// Opportunistic ≈ +9%, Inclusive ≈ +14%, Exclusive ≈ +16%, Perfect ≈ +17% —
// the two predictor schemes capture most of the disambiguation headroom.
// All (scheme, trace) runs execute concurrently; the Traditional baseline
// appears once in the job list, serving both as the denominator and as its
// own table row (pinned to exactly 1.0 by x/x division).
func Fig7(o Options) Fig7Result {
	res := Fig7Result{Speedup: map[memdep.Scheme][]float64{}}
	traces := o.groupTraces(trace.GroupSysmarkNT)
	for _, p := range traces {
		res.Traces = append(res.Traces, p.Name)
	}
	schemes := memdep.Schemes()
	jobs := make([]runner.Job, 0, len(schemes)*len(traces))
	for _, s := range schemes {
		jobs = o.addJobs(jobs, o.schemeMachine(s), traces)
	}
	sts := o.run(jobs)
	base := make([]float64, len(traces))
	for i := range traces {
		base[i] = sts[i].IPC() // schemes[0] is Traditional
	}
	for si, s := range schemes {
		for i := range traces {
			res.Speedup[s] = append(res.Speedup[s], sts[si*len(traces)+i].IPC()/base[i])
		}
	}
	return res
}

// Fig7Table renders Figure 7.
func Fig7Table(r Fig7Result) stats.Table {
	t := stats.Table{
		Title: "Figure 7 — Speedup vs Memory Ordering Scheme (SysmarkNT, 2K Full CHT)",
		Note:  "paper averages: Postponing 1.06, Opportunistic 1.09, Inclusive 1.14, Exclusive 1.16, Perfect 1.17",
	}
	t.Columns = append([]string{"scheme"}, r.Traces...)
	t.Columns = append(t.Columns, "NT_avg")
	dropped := 0
	for _, s := range memdep.Schemes() {
		row := []string{s.String()}
		for _, v := range r.Speedup[s] {
			row = append(row, stats.F3(v))
		}
		avg, d := r.AverageCounted(s)
		dropped += d
		row = append(row, stats.F3(avg))
		t.AddRow(row...)
	}
	if dropped > 0 {
		t.Note += fmt.Sprintf(" [warning: %d non-positive speedups excluded from averages]", dropped)
	}
	return t
}
