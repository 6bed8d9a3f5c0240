package experiments

import (
	"fmt"

	"loadsched/internal/hitmiss"
	"loadsched/internal/memdep"
	"loadsched/internal/ooo"
	"loadsched/internal/runner"
	"loadsched/internal/stats"
	"loadsched/internal/trace"
)

// Fig11Predictors are the HMP configurations of Figure 11, in display order.
var Fig11Predictors = []string{"local", "chooser", "local+timing", "chooser+timing", "perfect"}

// Fig11Groups are the figure's workloads.
var Fig11Groups = []string{trace.GroupSpecInt95, trace.GroupSysmarkNT}

// Fig11Cell is one (group, predictor) speedup over the no-HMP (always-hit)
// machine.
type Fig11Cell struct {
	Group     string
	Predictor string
	Speedup   float64
	// Dropped counts non-positive per-trace speedups excluded from the
	// cell's geometric mean; non-zero flags a degenerate simulation.
	Dropped int
}

// fig11Config builds the measurement machine of §4.2: the highest-performing
// configuration — 4 general and 2 memory execution units with perfect
// disambiguation — plus the requested hit-miss predictor.
func fig11Config(predictor string) ooo.Config {
	cfg := ooo.DefaultConfig()
	cfg.Scheme = memdep.Perfect
	cfg.IntUnits = 4
	switch predictor {
	case "none":
	case "local":
		cfg.HMP = hitmiss.NewLocal()
	case "chooser":
		cfg.HMP = hitmiss.NewChooser()
	case "local+timing":
		cfg.HMP = hitmiss.NewLocal()
		cfg.UseTimingHMP = true
	case "chooser+timing":
		cfg.HMP = hitmiss.NewChooser()
		cfg.UseTimingHMP = true
	case "perfect":
		cfg.HMP = &hitmiss.Perfect{}
	default:
		panic("experiments: unknown HMP " + predictor)
	}
	return cfg
}

// Fig11 reproduces Figure 11 (Speedup of Hit-Miss Prediction). The paper's
// shape: a perfect HMP is worth ≈6% on this machine; the local predictor
// with timing information achieves about 45% of that (≈2.5%); timing
// information helps every predictor. All (group, predictor, trace) runs —
// including the always-hit baseline — execute concurrently.
func Fig11(o Options) []Fig11Cell {
	type block struct {
		gname string
		n     int
		start int // index of the group's "none" baseline jobs
	}
	var points []*runner.Machine // "none" first, then Fig11Predictors
	for _, pred := range append([]string{"none"}, Fig11Predictors...) {
		points = append(points, o.machine(func() ooo.Config { return fig11Config(pred) }))
	}
	var blocks []block
	var jobs []runner.Job
	for _, gname := range Fig11Groups {
		traces := o.groupTraces(gname)
		blocks = append(blocks, block{gname: gname, n: len(traces), start: len(jobs)})
		for _, pt := range points {
			jobs = o.addJobs(jobs, pt, traces)
		}
	}
	sts := o.run(jobs)
	var cells []Fig11Cell
	for _, b := range blocks {
		base := make([]float64, b.n)
		for i := 0; i < b.n; i++ {
			base[i] = sts[b.start+i].IPC()
		}
		for pi, pred := range Fig11Predictors {
			sp := make([]float64, b.n)
			for i := 0; i < b.n; i++ {
				sp[i] = sts[b.start+(pi+1)*b.n+i].IPC() / base[i]
			}
			mean, dropped := stats.GeoMeanCounted(sp)
			cells = append(cells, Fig11Cell{Group: b.gname, Predictor: pred, Speedup: mean, Dropped: dropped})
		}
	}
	return cells
}

// Fig11Table renders Figure 11.
func Fig11Table(cells []Fig11Cell) stats.Table {
	t := stats.Table{
		Title:   "Figure 11 — Speedup of Hit-Miss Prediction (perfect disambiguation, EU4/MEM2)",
		Note:    "speedup over the always-hit machine; paper: perfect ≈ 1.06, local+timing ≈ 1.025",
		Columns: append([]string{"group"}, Fig11Predictors...),
	}
	byGroup := map[string]map[string]float64{}
	dropped := 0
	for _, c := range cells {
		if byGroup[c.Group] == nil {
			byGroup[c.Group] = map[string]float64{}
		}
		byGroup[c.Group][c.Predictor] = c.Speedup
		dropped += c.Dropped
	}
	var avg []string
	for _, g := range Fig11Groups {
		row := []string{g}
		for _, p := range Fig11Predictors {
			row = append(row, stats.F3(byGroup[g][p]))
		}
		t.AddRow(row...)
	}
	avg = append(avg, "average")
	for _, p := range Fig11Predictors {
		var xs []float64
		for _, g := range Fig11Groups {
			xs = append(xs, byGroup[g][p])
		}
		mean, d := stats.GeoMeanCounted(xs)
		dropped += d
		avg = append(avg, stats.F3(mean))
	}
	t.AddRow(avg...)
	if dropped > 0 {
		t.Note += fmt.Sprintf(" [warning: %d non-positive speedups excluded from means]", dropped)
	}
	return t
}
