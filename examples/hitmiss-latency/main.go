// hitmiss-latency: evaluate hit-miss predictors both statistically (as the
// paper's Figure 10) and end-to-end in the machine (Figure 11), on a
// memory-intensive workload, including the timing enhancement that catches
// dynamic misses through the outstanding-miss queue.
//
//	go run ./examples/hitmiss-latency
package main

import (
	"fmt"
	"os"

	"loadsched/internal/cache"
	"loadsched/internal/hitmiss"
	"loadsched/internal/memdep"
	"loadsched/internal/ooo"
	"loadsched/internal/stats"
	"loadsched/internal/trace"
	"loadsched/internal/uop"
)

const (
	uops   = 150_000
	warmup = 30_000
)

func main() {
	p, _ := trace.TraceByName(trace.GroupSpecFP95, "swim")

	// Part 1: statistical accuracy, trace order, no scheduling effects.
	fmt.Println("Part 1 — statistical accuracy on SpecFP95/swim")
	preds := map[string]hitmiss.Predictor{
		"always-hit": hitmiss.AlwaysHit{},
		"local":      hitmiss.NewLocal(),
		"chooser":    hitmiss.NewChooser(),
	}
	tallies := map[string]*hitmiss.Outcomes{}
	for name := range preds {
		tallies[name] = &hitmiss.Outcomes{}
	}
	g := trace.New(p)
	h := cache.NewHierarchy(cache.DefaultHierarchyConfig())
	for i := 0; i < warmup+uops; i++ {
		u := g.Next()
		ip, addr := uint64(u.IP), uint64(u.Addr)
		if u.Kind == uop.STA {
			h.Access(addr)
		}
		if u.Kind != uop.Load {
			continue
		}
		hit := h.Access(addr) == cache.L1
		for name, pr := range preds {
			if i >= warmup {
				tallies[name].Record(hit, pr.PredictHit(ip, addr, 0))
			}
			pr.Update(ip, addr, 0, hit)
		}
	}
	t := stats.Table{Columns: []string{"predictor", "AM-PM (caught)", "AM-PH (replays)", "AH-PM (delays)"}}
	for _, name := range []string{"always-hit", "local", "chooser"} {
		o := tallies[name]
		t.AddRow(name,
			fmt.Sprintf("%d (%s)", o.AMPM, stats.Pct(float64(o.AMPM)/float64(max(1, o.Misses())))),
			fmt.Sprintf("%d", o.AMPH), fmt.Sprintf("%d", o.AHPM))
	}
	t.Render(os.Stdout)

	// Part 2: end-to-end speedup on the §4.2 machine (perfect
	// disambiguation, 4 int / 2 mem units).
	fmt.Println("\nPart 2 — machine speedup over always-hit scheduling")
	run := func(h hitmiss.Predictor, timing bool) float64 {
		cfg := ooo.DefaultConfig()
		cfg.Scheme = memdep.Perfect
		cfg.IntUnits = 4
		cfg.HMP = h
		cfg.UseTimingHMP = timing
		cfg.WarmupUops = warmup
		return ooo.NewEngine(cfg, trace.Replay(p)).Run(uops).IPC()
	}
	base := run(nil, false)
	t2 := stats.Table{Columns: []string{"predictor", "IPC", "speedup"}}
	t2.AddRow("always-hit", stats.F3(base), "1.000")
	for _, row := range []struct {
		name   string
		pred   hitmiss.Predictor
		timing bool
	}{
		{"local", hitmiss.NewLocal(), false},
		{"local+timing", hitmiss.NewLocal(), true},
		{"chooser+timing", hitmiss.NewChooser(), true},
		{"perfect", &hitmiss.Perfect{}, false},
	} {
		ipc := run(row.pred, row.timing)
		t2.AddRow(row.name, stats.F3(ipc), stats.F3(ipc/base))
	}
	t2.Render(os.Stdout)
	fmt.Println("\nA caught miss (AM-PM) wakes dependents exactly when the data")
	fmt.Println("arrives; an uncaught one (AM-PH) squashes and re-schedules them.")
}

func max(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
