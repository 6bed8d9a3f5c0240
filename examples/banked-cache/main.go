// banked-cache: the paper's §2.3 end to end — compare the memory-pipeline
// organizations of Figure 4 (ideal multi-ported, conventional multi-banked,
// predictor-scheduled, and sliced) on one workload, then show the §4.3
// statistical metric for the four bank predictors.
//
//	go run ./examples/banked-cache
package main

import (
	"fmt"
	"os"

	"loadsched/internal/bankpred"
	"loadsched/internal/cache"
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
	p, _ := trace.TraceByName(trace.GroupSpecInt95, "vortex")

	// Part 1: pipeline organizations in the machine.
	fmt.Println("Part 1 — memory pipeline organizations on SpecInt95/vortex")
	type org struct {
		name   string
		policy ooo.BankPolicy
		pred   bankpred.Predictor
	}
	orgs := []org{
		{"ideal multi-ported", ooo.BankOff, nil},
		{"conventional banked", ooo.BankConventional, nil},
		{"dual-scheduled", ooo.BankDualScheduled, nil},
		{"predictor-scheduled", ooo.BankPredictive, bankpred.NewPredictorC()},
		{"sliced + predictor C", ooo.BankSliced, bankpred.NewPredictorC()},
		{"sliced + addr pred", ooo.BankSliced, bankpred.NewAddrBank(cache.DefaultBanking())},
	}
	t := stats.Table{Columns: []string{"organization", "IPC", "conflicts", "mispredicts", "duplicated"}}
	for _, o := range orgs {
		cfg := ooo.DefaultConfig()
		cfg.Scheme = memdep.Perfect
		cfg.WarmupUops = warmup
		cfg.BankPolicy = o.policy
		cfg.BankPredictor = o.pred
		cfg.Banking = cache.DefaultBanking()
		cfg.BankMispredictPenalty = 8
		st := ooo.NewEngine(cfg, trace.Replay(p)).Run(uops)
		t.AddRow(o.name, stats.F3(st.IPC()),
			fmt.Sprintf("%d", st.BankConflicts),
			fmt.Sprintf("%d", st.BankMispredicts),
			fmt.Sprintf("%d", st.BankDuplicates))
	}
	t.Render(os.Stdout)

	// Part 2: the §4.3 statistical metric (prediction rate and accuracy fold
	// into one gain number; penalty is the cost of a wrong bank).
	fmt.Println("\nPart 2 — statistical metric vs misprediction penalty")
	banking := cache.DefaultBanking()
	preds := []bankpred.Predictor{
		bankpred.NewPredictorA(), bankpred.NewPredictorB(),
		bankpred.NewPredictorC(), bankpred.NewAddrBank(banking),
	}
	tally := make([]bankpred.Stats, len(preds))
	g := trace.New(p)
	for i := 0; i < warmup+uops; i++ {
		u := g.Next()
		if u.Kind() != uop.Load {
			continue
		}
		ip, addr := uint64(u.IP), uint64(u.Addr)
		actual := banking.BankOf(addr)
		for j, pr := range preds {
			bank, ok := pr.Predict(ip)
			if i >= warmup {
				tally[j].Record(ok, ok && bank == actual)
			}
			if ab, isAddr := pr.(*bankpred.AddrBank); isAddr {
				ab.UpdateAddr(ip, addr)
			} else {
				pr.Update(ip, actual)
			}
		}
	}
	t2 := stats.Table{Columns: []string{"predictor", "rate", "accuracy", "metric p=0", "p=2", "p=5", "p=10"}}
	for j, pr := range preds {
		s := tally[j]
		t2.AddRow(pr.Name(), stats.Pct(s.Rate()), stats.Pct(s.Accuracy()),
			stats.F2(s.Metric(0)), stats.F2(s.Metric(2)), stats.F2(s.Metric(5)), stats.F2(s.Metric(10)))
	}
	t2.Render(os.Stdout)
	fmt.Println("\nmetric: 1.0 = ideal dual-ported cache, 0 = single-ported; a high")
	fmt.Println("penalty (sliced pipe) demands the accurate predictors (C, Addr).")
}
