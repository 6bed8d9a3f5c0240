package experiments

import (
	"fmt"
	"os"

	"loadsched/internal/memdep"
	"loadsched/internal/ooo"
	"loadsched/internal/results"
	"loadsched/internal/runner"
	"loadsched/internal/stats"
)

// SweepKinds lists the sensitivity sweeps; Run accepts each as
// "sweep-<kind>".
var SweepKinds = []string{"window", "penalty", "chtsize", "bankpolicies"}

// sweepTable runs one sensitivity sweep — design-space exploration beyond
// the paper's figures — and returns its rendered table. kind selects the
// axis (window size, collision penalty, Full-CHT size, or the §2.3 bank
// combination policies); group names the trace group the geomeans run over
// (ignored by bankpolicies, which is defined on SpecInt95).
func sweepTable(kind, group string, o Options) (stats.Table, error) {
	if kind == "bankpolicies" {
		return BankPoliciesTable(BankPolicies(o)), nil
	}
	traces, ok := o.traces(group)
	if !ok {
		return stats.Table{}, fmt.Errorf("experiments: unknown group %q", group)
	}

	// The sweep is built in two passes so the whole design space executes as
	// ONE Pool.Run: registration walks the axis and appends every point's
	// jobs (one per trace) to a single list, then the runner groups the
	// cross-product by workload into units that run same-trace jobs back
	// to back. point() closures read the shared result slice afterwards,
	// geo-meaning their span, so the rendered rows are byte-identical to
	// the old one-Run-per-point structure.
	var jobs []runner.Job
	var sts []ooo.Stats
	// addPoint registers one machine point over every trace and returns its
	// geomean-IPC thunk. mut must be a pure config mutation: it is re-run
	// for every build.
	addPoint := func(mut func(*ooo.Config)) func() float64 {
		off := len(jobs)
		jobs = o.addJobs(jobs, o.machine(func() ooo.Config {
			cfg := ooo.DefaultConfig()
			mut(&cfg)
			return cfg
		}), traces)
		return func() float64 {
			ipc := make([]float64, len(traces))
			for i := range ipc {
				ipc[i] = sts[off+i].IPC()
			}
			m, dropped := stats.GeoMeanCounted(ipc)
			if dropped > 0 {
				fmt.Fprintf(os.Stderr, "loadsched: sweep %s: %d of %d traces produced non-positive IPC, excluded from the mean\n",
					kind, dropped, len(ipc))
			}
			return m
		}
	}
	var t stats.Table
	var render []func()
	switch kind {
	case "window":
		t = stats.Table{
			Title:   fmt.Sprintf("Sweep — IPC vs scheduling window (%s)", group),
			Columns: []string{"window", "Traditional", "Exclusive", "Perfect", "Excl speedup"},
		}
		for _, w := range []int{8, 16, 32, 64, 128} {
			trad := addPoint(func(c *ooo.Config) { c.Window = w })
			excl := addPoint(func(c *ooo.Config) {
				c.Window = w
				c.Scheme = memdep.Exclusive
				c.CHT = memdep.NewFullCHT(2048, 4, 2, true)
			})
			perf := addPoint(func(c *ooo.Config) { c.Window = w; c.Scheme = memdep.Perfect })
			w := w
			render = append(render, func() {
				tv, ev := trad(), excl()
				t.AddRow(fmt.Sprintf("%d", w), stats.F3(tv), stats.F3(ev), stats.F3(perf()),
					stats.F3(ev/tv))
			})
		}
	case "penalty":
		t = stats.Table{
			Title:   fmt.Sprintf("Sweep — ordering-scheme speedup vs collision penalty (%s)", group),
			Note:    "the paper's constant is 8 cycles (§3.1)",
			Columns: []string{"penalty", "Opportunistic", "Inclusive", "Perfect"},
		}
		for _, pen := range []int{0, 4, 8, 16, 32} {
			base := addPoint(func(c *ooo.Config) { c.CollisionPenalty = pen })
			var pts []func() float64
			for _, s := range []memdep.Scheme{memdep.Opportunistic, memdep.Inclusive, memdep.Perfect} {
				pts = append(pts, addPoint(func(c *ooo.Config) {
					c.CollisionPenalty = pen
					c.Scheme = s
					if s.UsesCHT() {
						c.CHT = memdep.NewFullCHT(2048, 4, 2, true)
					}
				}))
			}
			pen := pen
			render = append(render, func() {
				b := base()
				row := []string{fmt.Sprintf("%d", pen)}
				for _, pt := range pts {
					row = append(row, stats.F3(pt()/b))
				}
				t.AddRow(row...)
			})
		}
	case "chtsize":
		t = stats.Table{
			Title:   fmt.Sprintf("Sweep — Inclusive-scheme speedup vs Full-CHT size (%s)", group),
			Columns: []string{"entries", "speedup"},
		}
		base := addPoint(func(c *ooo.Config) {})
		for _, n := range []int{128, 256, 512, 1024, 2048, 4096} {
			v := addPoint(func(c *ooo.Config) {
				c.Scheme = memdep.Inclusive
				c.CHT = memdep.NewFullCHT(n, 4, 2, true)
			})
			n := n
			render = append(render, func() {
				t.AddRow(fmt.Sprintf("%d", n), stats.F3(v()/base()))
			})
		}
	default:
		return stats.Table{}, fmt.Errorf("experiments: unknown sweep %q (want window | penalty | chtsize | bankpolicies)", kind)
	}
	sts = o.run(jobs)
	for _, r := range render {
		r()
	}
	return t, nil
}

// SweepRecord runs one sweep and returns its table-kind results/v1 record
// (positional string cells under the table's column names).
func SweepRecord(kind, group string, o Options) (results.Record, error) {
	res, err := Run("sweep-"+kind, group, o)
	return res.Record, err
}
