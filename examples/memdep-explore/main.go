// memdep-explore: the paper's §4.1 in miniature — sweep the six memory
// ordering schemes and four CHT organizations on one workload, using the
// internal packages directly for full control.
//
//	go run ./examples/memdep-explore
package main

import (
	"fmt"
	"os"

	"loadsched/internal/memdep"
	"loadsched/internal/ooo"
	"loadsched/internal/stats"
	"loadsched/internal/trace"
)

const (
	uops   = 150_000
	warmup = 30_000
)

func main() {
	p, ok := trace.TraceByName(trace.GroupSpecInt95, "gcc")
	if !ok {
		panic("trace missing")
	}

	// Part 1: the six ordering schemes with the paper's reference CHT.
	fmt.Println("Part 1 — ordering schemes on SpecInt95/gcc")
	var base float64
	t := stats.Table{Columns: []string{"scheme", "IPC", "speedup", "collisions"}}
	for _, s := range memdep.Schemes() {
		cfg := ooo.DefaultConfig()
		cfg.Scheme = s
		cfg.WarmupUops = warmup
		if s.UsesCHT() {
			cfg.CHT = memdep.NewFullCHT(2048, 4, 2, true)
		}
		st := ooo.NewEngine(cfg, trace.Replay(p)).Run(uops)
		if s == memdep.Traditional {
			base = st.IPC()
		}
		t.AddRow(s.String(), stats.F3(st.IPC()), stats.F3(st.IPC()/base),
			fmt.Sprintf("%d", st.Collisions))
	}
	t.Render(os.Stdout)

	// Part 2: CHT organizations under the Inclusive scheme. The Full CHT can
	// unlearn (fewest false "colliding" predictions); the sticky tagged-only
	// table never lets a colliding load slip (fewest AC-PNC); the combined
	// table pushes that further.
	fmt.Println("\nPart 2 — CHT organizations (Inclusive scheme)")
	chts := []memdep.Predictor{
		memdep.NewFullCHT(2048, 4, 2, true),
		memdep.NewTaglessCHT(4096, 1, false),
		memdep.NewImplicitCHT(2048, 4, false),
		memdep.NewCombinedCHT(2048, 4, 4096, false),
	}
	t2 := stats.Table{Columns: []string{"CHT", "IPC", "AC-PC", "AC-PNC", "ANC-PC"}}
	for _, cht := range chts {
		cfg := ooo.DefaultConfig()
		cfg.Scheme = memdep.Inclusive
		cfg.CHT = cht
		cfg.WarmupUops = warmup
		st := ooo.NewEngine(cfg, trace.Replay(p)).Run(uops)
		c := st.Class
		t2.AddRow(cht.Name(), stats.F3(st.IPC()),
			stats.Pct(c.FracOfLoads(c.ACPC)),
			stats.Pct2(c.FracOfLoads(c.ACPNC)),
			stats.Pct(c.FracOfLoads(c.ANCPC)))
	}
	t2.Render(os.Stdout)

	// Part 3: window-size sensitivity — bigger windows expose more
	// reordering opportunity (Figure 6's point).
	fmt.Println("\nPart 3 — Exclusive-scheme speedup vs window size")
	t3 := stats.Table{Columns: []string{"window", "traditional IPC", "exclusive IPC", "speedup"}}
	for _, w := range []int{8, 16, 32, 64, 128} {
		run := func(s memdep.Scheme) float64 {
			cfg := ooo.DefaultConfig()
			cfg.Window = w
			cfg.Scheme = s
			cfg.WarmupUops = warmup
			if s.UsesCHT() {
				cfg.CHT = memdep.NewFullCHT(2048, 4, 2, true)
			}
			return ooo.NewEngine(cfg, trace.Replay(p)).Run(uops).IPC()
		}
		tr, ex := run(memdep.Traditional), run(memdep.Exclusive)
		t3.AddRow(fmt.Sprintf("%d", w), stats.F3(tr), stats.F3(ex), stats.F3(ex/tr))
	}
	t3.Render(os.Stdout)
}
