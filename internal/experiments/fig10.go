package experiments

import (
	"loadsched/internal/cache"
	"loadsched/internal/hitmiss"
	"loadsched/internal/runner"
	"loadsched/internal/stats"
	"loadsched/internal/trace"
	"loadsched/internal/uop"
)

// Fig10Groups are the figure's workload columns; "Others" pools Games, Java
// and TPC.
var Fig10Groups = []string{trace.GroupSpecFP95, trace.GroupSpecInt95, trace.GroupSysmarkNT, "Others"}

// Fig10Row is one group's hit-miss predictor statistics, for the local-only
// predictor and the hybrid chooser.
type Fig10Row struct {
	Group   string
	Local   hitmiss.Outcomes
	Chooser hitmiss.Outcomes
}

// Fig10 reproduces Figure 10 (Hit-Miss Predictor Performance). Following
// §3.2, this is a statistical simulation: the load stream is replayed
// through the data hierarchy in trace order with no scheduling effects, and
// both predictor configurations observe every load. The paper's shape: the
// local predictor catches 34–85% of misses (AM-PM) at 0.07–0.32% AH-PM; the
// chooser cuts AH-PM to 0.04–0.2% while giving up little AM-PM; FP traces
// predict best, "Others" worst; AM-PM outweighs AH-PM at least 5:1.
//
// Every replay owns fresh predictors and a fresh hierarchy, so the
// per-trace tallies are independent: they run concurrently and merge per
// group in trace order.
func Fig10(o Options) []Fig10Row {
	type part struct {
		local, chooser hitmiss.Outcomes
	}
	var profiles []trace.Profile
	var spans [][2]int
	for _, gname := range Fig10Groups {
		start := len(profiles)
		profiles = append(profiles, fig10Traces(o, gname)...)
		spans = append(spans, [2]int{start, len(profiles)})
	}
	parts := runner.Map(o.pool(), len(profiles), func(ti int) part {
		var pt part
		local, chooser := hitmiss.NewLocal(), hitmiss.NewChooser()
		replayLoads(profiles[ti], o, func(ip, addr uint64, hit, measured bool) {
			if measured {
				pt.local.Record(hit, local.PredictHit(ip, addr, 0))
				pt.chooser.Record(hit, chooser.PredictHit(ip, addr, 0))
			}
			local.Update(ip, addr, 0, hit)
			chooser.Update(ip, addr, 0, hit)
		})
		return pt
	})
	var rows []Fig10Row
	for gi, gname := range Fig10Groups {
		row := Fig10Row{Group: gname}
		for _, pt := range parts[spans[gi][0]:spans[gi][1]] {
			row.Local.Add(pt.local)
			row.Chooser.Add(pt.chooser)
		}
		rows = append(rows, row)
	}
	return rows
}

// fig10Traces resolves a figure column, pooling "Others".
func fig10Traces(o Options, gname string) []trace.Profile {
	if gname != "Others" {
		return o.groupTraces(gname)
	}
	var out []trace.Profile
	for _, g := range []string{trace.GroupGames, trace.GroupJava, trace.GroupTPC} {
		out = append(out, o.groupTraces(g)...)
	}
	return out
}

// replayLoads streams a trace's loads through a fresh hierarchy in program
// order, calling fn with each load's actual L1 outcome. measured=false for
// warmup loads.
func replayLoads(p trace.Profile, o Options, fn func(ip, addr uint64, hit, measured bool)) {
	h := cache.NewHierarchy(cache.DefaultHierarchyConfig())
	warmup := o.EffectiveWarmup()
	replayUops(p, warmup+o.Uops, func(us []uop.UOp, base int) {
		for j := range us {
			u := &us[j]
			switch u.Kind() {
			case uop.Load:
				hit := h.Access(uint64(u.Addr)) == cache.L1
				fn(uint64(u.IP), uint64(u.Addr), hit, base+j >= warmup)
			case uop.STA:
				h.Access(uint64(u.Addr))
			}
		}
	})
}

// Fig10Table renders Figure 10: per group, the mispredicted hits (AH-PM,
// lower is better), the caught misses (AM-PM, higher is better) and the
// total misses, all as percentages of loads.
func Fig10Table(rows []Fig10Row) stats.Table {
	t := stats.Table{
		Title: "Figure 10 — Hit-Miss Predictor Performance (statistical)",
		Note:  "percent of all loads; paper: local catches 34-85% of misses, chooser halves AH-PM",
		Columns: []string{"group", "AH-PM loc", "AH-PM cho", "AM-PM loc", "AM-PM cho",
			"MISSES", "caught loc", "caught cho"},
	}
	for _, r := range rows {
		l, c := r.Local, r.Chooser
		caught := func(o hitmiss.Outcomes) float64 {
			if o.Misses() == 0 {
				return 0
			}
			return float64(o.AMPM) / float64(o.Misses())
		}
		t.AddRow(r.Group,
			stats.Pct2(l.Frac(l.AHPM)), stats.Pct2(c.Frac(c.AHPM)),
			stats.Pct2(l.Frac(l.AMPM)), stats.Pct2(c.Frac(c.AMPM)),
			stats.Pct2(l.Frac(l.Misses())),
			stats.Pct(caught(l)), stats.Pct(caught(c)))
	}
	return t
}
