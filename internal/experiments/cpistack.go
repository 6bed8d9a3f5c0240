package experiments

import (
	"loadsched/internal/memdep"
	"loadsched/internal/ooo"
	"loadsched/internal/results"
	"loadsched/internal/runner"
	"loadsched/internal/stats"
	"loadsched/internal/trace"
)

// CPIStackSchemes are the ordering schemes the CPI-stack view contrasts:
// the Traditional baseline (where ordering-wait cycles dominate the stall
// mix) against the Inclusive CHT scheme (where collision prediction
// converts most of them into base cycles, at the price of occasional
// collision-recovery bubbles).
var CPIStackSchemes = []memdep.Scheme{memdep.Traditional, memdep.Inclusive}

// CPIStackRow is one (trace group, scheme) pooled cycle attribution.
type CPIStackRow struct {
	Group  string
	Scheme memdep.Scheme
	// Stats is the pooled run statistics; Stats.CPI partitions Stats.Cycles.
	Stats ooo.Stats
}

// CPIStacks attributes every simulated cycle to a stall cause for each
// trace group under the contrast schemes. Cycle attribution is a pure
// observation layered on the stage boundaries, so these runs share memo
// entries with Figures 5–8 (same machine configurations).
func CPIStacks(o Options) []CPIStackRow {
	type span struct {
		group  string
		scheme memdep.Scheme
		lo, hi int
	}
	points := make([]*runner.Machine, len(CPIStackSchemes))
	for i, s := range CPIStackSchemes {
		points[i] = o.schemeMachine(s)
	}
	var spans []span
	var jobs []runner.Job
	for _, gname := range trace.GroupNames() {
		for i, s := range CPIStackSchemes {
			start := len(jobs)
			jobs = o.addJobs(jobs, points[i], o.groupTraces(gname))
			spans = append(spans, span{gname, s, start, len(jobs)})
		}
	}
	sts := o.run(jobs)
	rows := make([]CPIStackRow, len(spans))
	for i, sp := range spans {
		var pooled ooo.Stats
		for _, st := range sts[sp.lo:sp.hi] {
			pooled.Add(st)
		}
		rows[i] = CPIStackRow{Group: sp.group, Scheme: sp.scheme, Stats: pooled}
	}
	return rows
}

// CPIStackTable renders the CPI stacks as per-cause shares of all cycles.
func CPIStackTable(rows []CPIStackRow) stats.Table {
	t := stats.Table{
		Title: "CPI Stack — cycle attribution by stall cause",
		Note:  "per-cause cycles partition total cycles; shares of all cycles shown",
		Columns: []string{"group", "scheme", "CPI", "base", "frontend", "window",
			"ports", "ordering", "bank", "coll-rec", "miss-replay", "data"},
	}
	for _, r := range rows {
		c := r.Stats.CPI
		cyc := float64(r.Stats.Cycles)
		if cyc == 0 {
			cyc = 1
		}
		share := func(v int64) string { return stats.Pct(float64(v) / cyc) }
		t.AddRow(r.Group, r.Scheme.String(),
			stats.F2(float64(r.Stats.Cycles)/float64(max64(1, int64(r.Stats.Uops)))),
			share(c.Base), share(c.Frontend), share(c.WindowFull),
			share(c.PortContention), share(c.OrderingWait), share(c.BankConflict),
			share(c.CollisionRecovery), share(c.MissReplay), share(c.DataStall))
	}
	return t
}

// CPIStackRecord builds the structured cpistack record; Validate enforces
// the partition invariant on every row.
func CPIStackRecord(o Options, rows []CPIStackRow) results.Record {
	out := make([]results.CPIStackRow, 0, len(rows))
	for _, r := range rows {
		c := r.Stats.CPI
		cyc := r.Stats.Cycles
		frac := func(v int64) float64 {
			if cyc == 0 {
				return 0
			}
			return float64(v) / float64(cyc)
		}
		cpi := 0.0
		if r.Stats.Uops > 0 {
			cpi = float64(cyc) / float64(r.Stats.Uops)
		}
		out = append(out, results.CPIStackRow{
			Key:    r.Group + "/" + r.Scheme.String(),
			Cycles: cyc, Uops: r.Stats.Uops, CPI: cpi,
			Base: c.Base, Frontend: c.Frontend, WindowFull: c.WindowFull,
			PortContention: c.PortContention, OrderingWait: c.OrderingWait,
			BankConflict: c.BankConflict, CollisionRecovery: c.CollisionRecovery,
			MissReplay: c.MissReplay, DataStall: c.DataStall,
			FracBase:     frac(c.Base),
			FracOrdering: frac(c.OrderingWait),
			FracData:     frac(c.DataStall),
		})
	}
	return results.New("cpistack", results.KindCPIStack,
		"CPI Stack — cycle attribution by stall cause", "", recordOptions(o), out)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
