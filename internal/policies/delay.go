package policies

import (
	"loadsched/internal/cache"
	"loadsched/internal/ooo"
)

// Real-time load-delay tracking (Diavastos & Carlson): instead of
// predicting a discrete hierarchy level, track each load IP's observed
// delay directly — an exponentially weighted moving average of the
// latencies its retirements actually saw — and schedule dependents for the
// level whose latency is nearest that average. Loads with stable behavior
// converge to their true level; loads that alternate land between levels
// and quantize to the safer (nearer) one.
const (
	// delayIndexBits sizes the tagless per-IP delay table.
	delayIndexBits = 12
	// delayUntrained marks an entry with no observations yet.
	delayUntrained = -1
)

// loadDelayKey canonically describes the tracker geometry and EWMA for
// memo keys.
const loadDelayKey = "loaddelay(4096,ewma3/4)"

// loadDelayPolicy wraps the default policy with the delay tracker.
type loadDelayPolicy struct {
	ooo.SpeculationPolicy
	lat   cache.Latencies
	delay [1 << delayIndexBits]int32
}

func newLoadDelay(base ooo.Config, deps ooo.PolicyDeps) ooo.SpeculationPolicy {
	p := &loadDelayPolicy{
		SpeculationPolicy: ooo.DefaultPolicy(base, deps),
		lat:               base.Lat,
	}
	for i := range p.delay {
		p.delay[i] = delayUntrained
	}
	return p
}

func delayIndex(ip uint64) uint64 {
	return hermesMix(ip) & (1<<delayIndexBits - 1)
}

// PredictLevel quantizes the tracked delay to the hierarchy level with the
// nearest latency; ties go to the shallower level. Untracked IPs fall back
// to the base policy.
func (p *loadDelayPolicy) PredictLevel(ip, addr uint64, now int64) cache.Level {
	d := p.delay[delayIndex(ip)]
	if d == delayUntrained {
		return p.SpeculationPolicy.PredictLevel(ip, addr, now)
	}
	best, bestDist := cache.L1, int32(0)
	for _, lv := range []cache.Level{cache.L1, cache.L2, cache.Memory} {
		dist := d - int32(p.lat.Of(lv))
		if dist < 0 {
			dist = -dist
		}
		if lv == cache.L1 || dist < bestDist {
			best, bestDist = lv, dist
		}
	}
	return best
}

// TrainRetire trains the base predictors first, then folds the observed
// servicing latency into the IP's moving average (weight 1/4 to the new
// observation).
func (p *loadDelayPolicy) TrainRetire(ev ooo.TrainEvent) {
	p.SpeculationPolicy.TrainRetire(ev)
	obs := int32(p.lat.Of(ev.Level))
	slot := &p.delay[delayIndex(ev.IP)]
	if *slot == delayUntrained {
		*slot = obs
	} else {
		*slot = (3**slot + obs) >> 2
	}
}
