package experiments

import (
	"loadsched/internal/bankpred"
	"loadsched/internal/cache"
	"loadsched/internal/predict"
	"loadsched/internal/runner"
	"loadsched/internal/stats"
	"loadsched/internal/trace"
	"loadsched/internal/uop"
)

// BankPolicyRow is one §2.3 combination policy's statistical result.
type BankPolicyRow struct {
	Policy string
	Stats  bankpred.Stats
}

// BankPolicies evaluates the four vote-combination policies §2.3 lists for
// merging the component bank predictors ("the prediction was a simple
// majority vote", "a weight was assigned to each predictor ... only if this
// sum exceeded a predefined threshold", "only those predictions with a high
// confidence were taken into account", "a different weight was assigned
// according to the confidence level"), over the SpecInt95 load stream. The
// combined predictors are reset between traces, so each trace's replay is
// independent: replays run concurrently with fresh predictors and their
// tallies merge in trace order.
func BankPolicies(o Options) []BankPolicyRow {
	banking := cache.DefaultBanking()
	mk := func(policy predict.Policy, threshold, minConf int) *predict.Combined {
		return &predict.Combined{
			Components: []predict.Binary{
				predict.NewLocal(9, 8, 3),
				predict.NewGShare(11, 11, 3),
				predict.NewGSkew(10, 17, 3),
			},
			Policy:        policy,
			Threshold:     threshold,
			MinConfidence: minConf,
		}
	}
	type policyConfig struct {
		name      string
		policy    predict.Policy
		threshold int
		minConf   int
	}
	configs := []policyConfig{
		{"majority", predict.Majority, 0, 0},
		{"weighted-sum", predict.WeightedSum, 2, 0},
		{"high-confidence", predict.HighConfidence, 0, 2},
		{"confidence-weighted", predict.ConfidenceWeighted, 8, 0},
	}
	profiles := o.groupTraces(trace.GroupSpecInt95)
	warmup := o.EffectiveWarmup()
	parts := runner.Map(o.pool(), len(profiles), func(ti int) []bankpred.Stats {
		combs := make([]*predict.Combined, len(configs))
		for i, c := range configs {
			combs[i] = mk(c.policy, c.threshold, c.minConf)
		}
		tallies := make([]bankpred.Stats, len(configs))
		replayUops(profiles[ti], warmup+o.Uops, func(us []uop.UOp, base int) {
			for j := range us {
				u := &us[j]
				if u.Kind() != uop.Load {
					continue
				}
				actual := banking.BankOf(uint64(u.Addr)) == 1
				for k, comb := range combs {
					r := comb.PredictRated(uint64(u.IP))
					if base+j >= warmup {
						tallies[k].Record(r.Predicted, r.Predicted && r.Taken == actual)
					}
					comb.Update(uint64(u.IP), actual)
				}
			}
		})
		return tallies
	})
	tallies := make([]bankpred.Stats, len(configs))
	for _, part := range parts {
		for i := range tallies {
			tallies[i].Add(part[i])
		}
	}
	rows := make([]BankPolicyRow, len(configs))
	for i, c := range configs {
		rows[i] = BankPolicyRow{Policy: c.name, Stats: tallies[i]}
	}
	return rows
}

// BankPoliciesTable renders the policy comparison.
func BankPoliciesTable(rows []BankPolicyRow) stats.Table {
	t := stats.Table{
		Title:   "§2.3 combination policies for bank prediction (SpecInt95)",
		Note:    "rate/accuracy trade-off of the four vote-merging rules the paper lists",
		Columns: []string{"policy", "rate", "accuracy", "metric p=0", "p=5", "p=10"},
	}
	for _, r := range rows {
		t.AddRow(r.Policy, stats.Pct(r.Stats.Rate()), stats.Pct(r.Stats.Accuracy()),
			stats.F2(r.Stats.Metric(0)), stats.F2(r.Stats.Metric(5)), stats.F2(r.Stats.Metric(10)))
	}
	return t
}
