package policies

import (
	"loadsched/internal/cache"
	"loadsched/internal/hitmiss"
	"loadsched/internal/ooo"
)

// Cache-level prediction (Jalili & Erez): generalize the paper's binary
// hit/miss HMP to predict which hierarchy level services the load, so the
// scheduler wakes dependents at the L1, L2 or memory latency instead of
// collapsing every miss to one penalty class. The predictor is the
// cascaded TwoStage of internal/hitmiss — the §2.2 local predictor deciding
// L1 hit vs miss, with a smaller second stage splitting misses into L2 vs
// memory — here driven through the policy seam rather than the Config.HMP
// field, which keeps the base machine's always-hit accounting untouched
// for every other decision.

// cacheLevelKey canonically describes the two-stage geometry (the
// NewTwoStage construction parameters) for memo keys.
const cacheLevelKey = "cachelevel(two-stage,l1=local(11,8,2),l2=local(9,6,2))"

// cacheLevelPolicy wraps the default policy with the level predictor.
type cacheLevelPolicy struct {
	ooo.SpeculationPolicy
	levels *hitmiss.TwoStage
}

func newCacheLevel(base ooo.Config, deps ooo.PolicyDeps) ooo.SpeculationPolicy {
	return &cacheLevelPolicy{
		SpeculationPolicy: ooo.DefaultPolicy(base, deps),
		levels:            hitmiss.NewTwoStage(),
	}
}

// PredictLevel overrides the base policy with the cascaded prediction.
func (p *cacheLevelPolicy) PredictLevel(ip, addr uint64, now int64) cache.Level {
	return p.levels.PredictLevel(ip, addr, now)
}

// TrainRetire trains the base predictors first, then the level cascade
// with the actual servicing level.
func (p *cacheLevelPolicy) TrainRetire(ev ooo.TrainEvent) {
	p.SpeculationPolicy.TrainRetire(ev)
	p.levels.UpdateLevel(ev.IP, ev.Addr, ev.Now, ev.Level)
}
