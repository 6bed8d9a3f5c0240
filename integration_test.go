package loadsched

// Cross-module integration tests: these exercise the whole stack — trace
// generation → out-of-order engine → predictors → statistics — and pin the
// qualitative results the paper's evaluation rests on. They use reduced
// trace lengths, so thresholds are loose; the full-size numbers live in
// EXPERIMENTS.md.

import (
	"testing"

	"loadsched/internal/bankpred"
	"loadsched/internal/cache"
	"loadsched/internal/experiments"
	"loadsched/internal/hitmiss"
	"loadsched/internal/memdep"
	"loadsched/internal/ooo"
	"loadsched/internal/trace"
	"loadsched/internal/uop"
)

func TestIntegrationCentralResult(t *testing.T) {
	// The paper's central claim, end to end: on SysmarkNT, collision
	// prediction recovers most of the headroom between Traditional and
	// Perfect disambiguation.
	if testing.Short() {
		t.Skip("integration")
	}
	o := experiments.Options{Uops: 100_000, Warmup: 25_000, TracesPerGroup: 4}
	r := experiments.Fig7(o)
	perf := r.Average(memdep.Perfect)
	incl := r.Average(memdep.Inclusive)
	excl := r.Average(memdep.Exclusive)
	if perf < 1.05 {
		t.Fatalf("perfect disambiguation speedup %.3f — headroom collapsed", perf)
	}
	gotFrac := (incl - 1) / (perf - 1)
	if gotFrac < 0.6 {
		t.Fatalf("inclusive captures only %.0f%% of the headroom (paper: most of it)", 100*gotFrac)
	}
	if excl < incl-0.01 {
		t.Fatalf("exclusive (%.3f) fell below inclusive (%.3f)", excl, incl)
	}
}

func TestIntegrationCHTOneBitSuffices(t *testing.T) {
	// §2.1: "in its simplest form our dependence predictor needs only a
	// single bit". The tagless 1-bit CHT must recover a comparable share of
	// the perfect-disambiguation headroom as the Full CHT.
	p, _ := trace.TraceByName(trace.GroupSysmarkNT, "cd")
	run := func(cht memdep.Predictor, scheme memdep.Scheme) float64 {
		cfg := ooo.DefaultConfig()
		cfg.Scheme = scheme
		cfg.CHT = cht
		cfg.WarmupUops = 20_000
		return ooo.NewEngine(cfg, trace.Replay(p)).Run(80_000).IPC()
	}
	base := run(nil, memdep.Traditional)
	oneBit := run(memdep.NewTaglessCHT(4096, 1, false), memdep.Inclusive)
	full := run(memdep.NewFullCHT(2048, 4, 2, false), memdep.Inclusive)
	if oneBit <= base {
		t.Fatalf("1-bit CHT gained nothing: %.3f vs %.3f", oneBit, base)
	}
	if oneBit < base+(full-base)*0.5 {
		t.Fatalf("1-bit CHT (%.3f) far below full CHT (%.3f) over base %.3f", oneBit, full, base)
	}
}

func TestIntegrationHMPReducesReplays(t *testing.T) {
	// §2.2: the HMP's value is fewer replays (AM-PH) traded for few delays
	// (AH-PM).
	p, _ := trace.TraceByName(trace.GroupSpecFP95, "tomcatv")
	run := func(h hitmiss.Predictor) ooo.Stats {
		cfg := ooo.DefaultConfig()
		cfg.Scheme = memdep.Perfect
		cfg.HMP = h
		cfg.WarmupUops = 20_000
		return ooo.NewEngine(cfg, trace.Replay(p)).Run(80_000)
	}
	base := run(nil)
	local := run(hitmiss.NewLocal())
	if base.HM.AMPM != 0 {
		t.Fatal("always-hit cannot catch misses")
	}
	if local.HM.AMPH >= base.HM.AMPH {
		t.Fatalf("local HMP did not reduce replays: %d vs %d", local.HM.AMPH, base.HM.AMPH)
	}
	caught := float64(local.HM.AMPM) / float64(local.HM.Misses())
	if caught < 0.3 {
		t.Fatalf("local HMP caught only %.0f%% of FP misses (paper: 85%%)", 100*caught)
	}
}

func TestIntegrationBankPredictorsOnAllGroups(t *testing.T) {
	// Bank prediction must be far more often right than wrong on every
	// group, and abstention keeps it that way.
	if testing.Short() {
		t.Skip("integration")
	}
	banking := cache.DefaultBanking()
	for _, gname := range trace.GroupNames() {
		g, _ := trace.GroupByName(gname)
		pred := 0
		var tally struct{ total, correct, wrong int }
		pr := trace.New(g.Traces[0])
		bp := fig12Predictor(banking)
		for i := 0; i < 80_000; i++ {
			u := pr.Next()
			if u.Kind() != uop.Load {
				continue
			}
			actual := banking.BankOf(uint64(u.Addr))
			bank, ok := bp.Predict(uint64(u.IP))
			tally.total++
			if ok && i > 20_000 {
				pred++
				if bank == actual {
					tally.correct++
				} else {
					tally.wrong++
				}
			}
			bp.Update(uint64(u.IP), actual)
		}
		if pred == 0 {
			t.Errorf("%s: predictor never predicted", gname)
			continue
		}
		if tally.correct < tally.wrong*5 {
			t.Errorf("%s: accuracy too low (%d correct / %d wrong)", gname, tally.correct, tally.wrong)
		}
	}
}

// fig12Predictor gives the integration test its own predictor A instance.
func fig12Predictor(cache.Banking) bankpred.Predictor {
	return bankpred.NewPredictorA()
}

func TestIntegrationWindowScalingMatters(t *testing.T) {
	// Figure 6 premise end to end: the predictor's payoff grows with the
	// scheduling window.
	p, _ := trace.TraceByName(trace.GroupSysmarkNT, "pm")
	gain := func(window int) float64 {
		run := func(s memdep.Scheme) float64 {
			cfg := ooo.DefaultConfig()
			cfg.Window = window
			cfg.Scheme = s
			cfg.WarmupUops = 20_000
			if s.UsesCHT() {
				cfg.CHT = memdep.NewFullCHT(2048, 4, 2, true)
			}
			return ooo.NewEngine(cfg, trace.Replay(p)).Run(80_000).IPC()
		}
		return run(memdep.Exclusive) / run(memdep.Traditional)
	}
	if g8, g64 := gain(8), gain(64); g64 < g8-0.02 {
		t.Fatalf("predictor payoff shrank with window: %.3f (w=8) vs %.3f (w=64)", g8, g64)
	}
}

func TestIntegrationTraceDistributions(t *testing.T) {
	// Group-level invariants the experiments rely on, measured on the raw
	// trace streams.
	type groupStat struct{ loads, stores, uops int }
	for _, gname := range trace.GroupNames() {
		g, _ := trace.GroupByName(gname)
		gen := trace.New(g.Traces[0])
		var st groupStat
		for i := 0; i < 60_000; i++ {
			u := gen.Next()
			st.uops++
			switch u.Kind() {
			case uop.Load:
				st.loads++
			case uop.STA:
				st.stores++
			}
		}
		loadFrac := float64(st.loads) / float64(st.uops)
		if loadFrac < 0.1 || loadFrac > 0.4 {
			t.Errorf("%s: load fraction %.2f implausible", gname, loadFrac)
		}
		if st.stores == 0 {
			t.Errorf("%s: no stores", gname)
		}
	}
}
