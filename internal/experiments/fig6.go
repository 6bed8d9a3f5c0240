package experiments

import (
	"fmt"

	"loadsched/internal/memdep"
	"loadsched/internal/ooo"
	"loadsched/internal/runner"
	"loadsched/internal/stats"
	"loadsched/internal/trace"
)

// Fig6Windows are the scheduling-window sizes Figure 6 sweeps.
var Fig6Windows = []int{8, 16, 32, 64, 128}

// Fig6Row is one window size's classification on the SysmarkNT traces.
type Fig6Row struct {
	Window int
	Class  memdep.Classification
}

// Fig6 reproduces Figure 6 (Opportunities vs Window Size): as the scheduling
// window grows from 8 to 128 entries, more stores are in flight when each
// load schedules, so the AC share rises steadily while the no-conflict share
// falls — enlarging the payoff of a collision predictor. All (window, trace)
// runs execute concurrently; the 32-entry column shares its memoized
// baseline with Figure 5.
func Fig6(o Options) []Fig6Row {
	traces := o.groupTraces(trace.GroupSysmarkNT)
	var jobs []runner.Job
	for _, w := range Fig6Windows {
		jobs = o.addJobs(jobs, o.machine(func() ooo.Config {
			cfg := baseConfig(memdep.Traditional)
			cfg.Window = w
			return cfg
		}), traces)
	}
	sts := o.run(jobs)
	rows := make([]Fig6Row, len(Fig6Windows))
	for i, w := range Fig6Windows {
		var cl memdep.Classification
		for _, st := range sts[i*len(traces) : (i+1)*len(traces)] {
			cl.Add(st.Class)
		}
		rows[i] = Fig6Row{Window: w, Class: cl}
	}
	return rows
}

// Fig6Table renders Figure 6.
func Fig6Table(rows []Fig6Row) stats.Table {
	t := stats.Table{
		Title:   "Figure 6 — Opportunities vs Scheduling Window Size (SysmarkNT)",
		Note:    "paper: AC share grows and no-conflict share shrinks as the window widens",
		Columns: []string{"window", "AC", "ANC", "no-conflict"},
	}
	for _, r := range rows {
		c := r.Class
		t.AddRow(fmt.Sprintf("%d", r.Window),
			stats.Pct(c.FracOfLoads(c.AC())),
			stats.Pct(c.FracOfLoads(c.ANC())),
			stats.Pct(c.FracOfLoads(c.NotConflicting)))
	}
	return t
}
