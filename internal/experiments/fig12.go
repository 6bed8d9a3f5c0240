package experiments

import (
	"fmt"

	"loadsched/internal/bankpred"
	"loadsched/internal/cache"
	"loadsched/internal/runner"
	"loadsched/internal/stats"
	"loadsched/internal/trace"
	"loadsched/internal/uop"
)

// Fig12Predictors are the figure's bank predictors, in display order.
var Fig12Predictors = []string{"A", "B", "C", "Addr"}

// Fig12Groups are the figure's workloads (SysmarkNT behaved like SpecINT in
// the paper and is included as a bonus column by the CLI's full run).
var Fig12Groups = []string{trace.GroupSpecInt95, trace.GroupSpecFP95}

// Fig12Penalties is the x-axis of Figure 12.
var Fig12Penalties = []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}

// Fig12Row is one (group, predictor) statistical result; the metric curve
// over penalties derives from Stats via the §4.3 formula.
type Fig12Row struct {
	Group     string
	Predictor string
	Stats     bankpred.Stats
}

// Metric evaluates the row's gain metric at a penalty.
func (r Fig12Row) Metric(penalty float64) float64 { return r.Stats.Metric(penalty) }

func fig12Make(name string, banking cache.Banking) bankpred.Predictor {
	switch name {
	case "A":
		return bankpred.NewPredictorA()
	case "B":
		return bankpred.NewPredictorB()
	case "C":
		return bankpred.NewPredictorC()
	case "Addr":
		return bankpred.NewAddrBank(banking)
	default:
		panic("experiments: unknown bank predictor " + name)
	}
}

// Fig12 reproduces Figure 12 (Bank Predictor Comparison): each predictor
// observes the load stream in program order (statistical evaluation, §3.2)
// against a two-bank 64-byte-interleaved L1. The paper's operating points:
// prediction rates ≈50% for A and B, ≈70% for C and Addr; accuracies ≈97%
// for A and C, ≈98% for B and Addr. The metric at penalty 0 reads off the
// prediction rate; the slope reads off the accuracy.
//
// The predictor tables are reset between traces (per-trace runs), so each
// trace's replay is independent: all (group, trace) replays run concurrently
// with fresh predictors, and their tallies merge in trace order.
func Fig12(o Options) []Fig12Row {
	banking := cache.DefaultBanking()
	var profiles []trace.Profile
	var spans [][2]int
	for _, gname := range Fig12Groups {
		start := len(profiles)
		profiles = append(profiles, o.groupTraces(gname)...)
		spans = append(spans, [2]int{start, len(profiles)})
	}
	warmup := o.EffectiveWarmup()
	parts := runner.Map(o.pool(), len(profiles), func(ti int) []bankpred.Stats {
		preds := make([]bankpred.Predictor, len(Fig12Predictors))
		tallies := make([]bankpred.Stats, len(Fig12Predictors))
		for i, n := range Fig12Predictors {
			preds[i] = fig12Make(n, banking)
		}
		replayUops(profiles[ti], warmup+o.Uops, func(us []uop.UOp, base int) {
			for j := range us {
				up := &us[j]
				if up.Kind() != uop.Load {
					continue
				}
				ip, addr := uint64(up.IP), uint64(up.Addr)
				actual := banking.BankOf(addr)
				for i, pr := range preds {
					bank, ok := pr.Predict(ip)
					if base+j >= warmup {
						tallies[i].Record(ok, ok && bank == actual)
					}
					if ab, isAddr := pr.(*bankpred.AddrBank); isAddr {
						ab.UpdateAddr(ip, addr)
					} else {
						pr.Update(ip, actual)
					}
				}
			}
		})
		return tallies
	})
	var rows []Fig12Row
	for gi, gname := range Fig12Groups {
		tallies := make([]bankpred.Stats, len(Fig12Predictors))
		for _, part := range parts[spans[gi][0]:spans[gi][1]] {
			for i := range tallies {
				tallies[i].Add(part[i])
			}
		}
		for i, n := range Fig12Predictors {
			rows = append(rows, Fig12Row{Group: gname, Predictor: n, Stats: tallies[i]})
		}
	}
	return rows
}

// Fig12Table renders Figure 12 as the metric across penalties plus the
// underlying rate/accuracy operating points.
func Fig12Table(rows []Fig12Row) stats.Table {
	t := stats.Table{
		Title: "Figure 12 — Bank Predictor Comparison (metric vs penalty)",
		Note:  "paper: rate ≈50% (A,B) / ≈70% (C,Addr); accuracy ≈97% (A,C) / ≈98% (B,Addr)",
	}
	t.Columns = []string{"group", "pred", "rate", "acc"}
	for _, p := range Fig12Penalties {
		t.Columns = append(t.Columns, fmt.Sprintf("m%d", int(p)))
	}
	for _, r := range rows {
		row := []string{r.Group, r.Predictor,
			stats.Pct(r.Stats.Rate()), stats.Pct(r.Stats.Accuracy())}
		for _, p := range Fig12Penalties {
			row = append(row, stats.F2(r.Metric(p)))
		}
		t.AddRow(row...)
	}
	return t
}
