package experiments

import (
	"loadsched/internal/memdep"
	"loadsched/internal/runner"
	"loadsched/internal/stats"
	"loadsched/internal/trace"
)

// Fig5Row is one trace group's load-scheduling classification.
type Fig5Row struct {
	Group string
	Class memdep.Classification
}

// Fig5 reproduces Figure 5 (Load Scheduling Classification): the share of
// dynamic loads that actually collide (AC), conflict without colliding
// (ANC), or have no ordering conflict at schedule time, per trace group,
// with the 32-entry baseline scheduling window. The paper's headline: ≈10%
// AC, ≈60% ANC, ≈30% no-conflict, so 60–70% of loads can benefit from a
// collision predictor. All (group, trace) baseline runs execute
// concurrently; the per-group tallies merge in group/trace order.
func Fig5(o Options) []Fig5Row {
	var groups []string
	var spans [][2]int
	var jobs []runner.Job
	base := o.schemeMachine(memdep.Traditional)
	for _, gname := range trace.GroupNames() {
		if gname == trace.GroupSpecFP95 {
			continue // the paper's disambiguation runs exclude SpecFP95 (§4.1)
		}
		start := len(jobs)
		jobs = o.addJobs(jobs, base, o.groupTraces(gname))
		groups = append(groups, gname)
		spans = append(spans, [2]int{start, len(jobs)})
	}
	sts := o.run(jobs)
	rows := make([]Fig5Row, len(groups))
	for i, gname := range groups {
		var cl memdep.Classification
		for _, st := range sts[spans[i][0]:spans[i][1]] {
			cl.Add(st.Class)
		}
		rows[i] = Fig5Row{Group: gname, Class: cl}
	}
	return rows
}

// Fig5Table renders Figure 5.
func Fig5Table(rows []Fig5Row) stats.Table {
	t := stats.Table{
		Title:   "Figure 5 — Load Scheduling Classification (32-entry window)",
		Note:    "paper: ~10% AC, ~60% ANC, ~30% no-conflict across groups",
		Columns: []string{"group", "AC", "ANC", "no-conflict"},
	}
	var total memdep.Classification
	for _, r := range rows {
		c := r.Class
		t.AddRow(r.Group,
			stats.Pct(c.FracOfLoads(c.AC())),
			stats.Pct(c.FracOfLoads(c.ANC())),
			stats.Pct(c.FracOfLoads(c.NotConflicting)))
		total.Add(c)
	}
	t.AddRow("average",
		stats.Pct(total.FracOfLoads(total.AC())),
		stats.Pct(total.FracOfLoads(total.ANC())),
		stats.Pct(total.FracOfLoads(total.NotConflicting)))
	return t
}
