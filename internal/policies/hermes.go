package policies

import (
	"loadsched/internal/cache"
	"loadsched/internal/ooo"
)

// Hermes-style perceptron off-chip load prediction (Bera et al., MICRO
// 2022). Hermes observes that the binary question that matters most is
// whether a load leaves the chip entirely: off-chip loads dominate stall
// time, and a cheap perceptron over hashed program features predicts them
// accurately enough to act on. Here the prediction feeds the scheduler
// instead of a prefetch request: a predicted off-chip load wakes its
// dependents at the memory latency (the AM-PM case of §2.2, where catching
// the miss early is free), and everything else falls back to the base
// policy's prediction.
//
// The predictor is a hashed-perceptron: one signed weight table per
// feature, indexed by a mixed hash of the feature value; the weight sum
// against a fixed activation threshold is the prediction, and training
// nudges the weights on mispredictions or low-confidence sums (the classic
// perceptron margin rule).
const (
	// hermesTables is the number of feature tables (ip, line, page, and
	// the ip-xor combinations — the spirit of Hermes' program features).
	hermesTables = 5
	// hermesIndexBits sizes each weight table.
	hermesIndexBits = 11
	// hermesWeightMax / hermesWeightMin clamp weights to 6-bit signed.
	hermesWeightMax = 31
	hermesWeightMin = -32
	// hermesActivate is the sum threshold above which the load is
	// predicted off-chip.
	hermesActivate = 2
	// hermesTheta is the training margin: correct predictions with
	// |sum| <= hermesTheta still train.
	hermesTheta = 14
)

// hermesKey canonically describes the predictor geometry for memo keys.
const hermesKey = "hermes(perceptron,t5x2048,w6,act2,theta14)"

// hermesPolicy wraps the default policy with the off-chip perceptron.
type hermesPolicy struct {
	ooo.SpeculationPolicy
	weights [hermesTables][1 << hermesIndexBits]int8
}

func newHermes(base ooo.Config, deps ooo.PolicyDeps) ooo.SpeculationPolicy {
	return &hermesPolicy{SpeculationPolicy: ooo.DefaultPolicy(base, deps)}
}

// hermesMix finalizes a feature value into a table index (the 64-bit
// variant of the splitmix64 finalizer — deterministic and well spread).
func hermesMix(v uint64) uint64 {
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 29
	v *= 0xc4ceb9fe1a85ec53
	v ^= v >> 32
	return v
}

// features derives the per-table feature values for one access.
func hermesFeatures(ip, addr uint64) [hermesTables]uint64 {
	line, page := addr>>6, addr>>12
	return [hermesTables]uint64{ip, line, page, ip ^ line, ip ^ page}
}

// sum accumulates the perceptron response for one access.
func (p *hermesPolicy) sum(ip, addr uint64) int {
	const mask = 1<<hermesIndexBits - 1
	s := 0
	for t, f := range hermesFeatures(ip, addr) {
		s += int(p.weights[t][hermesMix(f)&mask])
	}
	return s
}

// PredictLevel overrides the base policy: a perceptron-predicted off-chip
// load is scheduled for the memory latency; otherwise the base policy
// (typically always-hit) decides.
func (p *hermesPolicy) PredictLevel(ip, addr uint64, now int64) cache.Level {
	if p.sum(ip, addr) >= hermesActivate {
		return cache.Memory
	}
	return p.SpeculationPolicy.PredictLevel(ip, addr, now)
}

// TrainRetire trains the base predictors (CHT, bank) first, then applies
// the perceptron margin rule against the load's actual servicing level.
func (p *hermesPolicy) TrainRetire(ev ooo.TrainEvent) {
	p.SpeculationPolicy.TrainRetire(ev)
	const mask = 1<<hermesIndexBits - 1
	s := p.sum(ev.IP, ev.Addr)
	offchip := ev.Level == cache.Memory
	predicted := s >= hermesActivate
	if predicted == offchip && abs(s) > hermesTheta {
		return
	}
	for t, f := range hermesFeatures(ev.IP, ev.Addr) {
		w := &p.weights[t][hermesMix(f)&mask]
		if offchip {
			if *w < hermesWeightMax {
				*w++
			}
		} else if *w > hermesWeightMin {
			*w--
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
