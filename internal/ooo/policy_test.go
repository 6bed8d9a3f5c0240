package ooo

import (
	"math"
	"testing"

	"loadsched/internal/memdep"
	"loadsched/internal/trace"
)

// TestNewPolicyWrapsDefault checks the seam is transparent: installing a
// NewPolicy constructor that just returns the built-in policy must
// reproduce the default path's statistics exactly.
func TestNewPolicyWrapsDefault(t *testing.T) {
	p, _ := trace.TraceByName(trace.GroupSysmarkNT, "ex")
	// Each engine needs its own config: the CHT instance is stateful, so
	// sharing one across runs would leak training from the first run into
	// the second.
	mkCfg := func() Config {
		cfg := DefaultConfig()
		cfg.Scheme = memdep.Inclusive
		cfg.CHT = memdep.NewFullCHT(2048, 4, 2, true)
		return cfg
	}
	base := NewEngine(mkCfg(), trace.Replay(p)).Run(20000)

	wrapped := mkCfg()
	wrapped.NewPolicy = func(deps PolicyDeps) SpeculationPolicy {
		return DefaultPolicy(wrapped, deps)
	}
	got := NewEngine(wrapped, trace.Replay(p)).Run(20000)
	if got != base {
		t.Fatalf("wrapping DefaultPolicy changed the run:\nbase: %+v\ngot:  %+v", base, got)
	}
}

// extremeCHT is a stub collision predictor returning a fixed, possibly
// pathological distance for every load.
type extremeCHT struct{ dist int }

func (c extremeCHT) Lookup(uint64) memdep.Prediction {
	return memdep.Prediction{Colliding: true, Distance: c.dist}
}
func (extremeCHT) Record(uint64, bool, int) {}
func (extremeCHT) Reset()                   {}
func (extremeCHT) Name() string             { return "stub" }

// TestExclusiveExtremeDistances: regression for the maxID underflow in the
// Exclusive scheme's ordering decision. A hostile predicted distance
// (negative, or far larger than the in-flight store window) must neither
// wrap the store-id arithmetic nor hand StoresComplete an unbounded range
// to walk.
func TestExclusiveExtremeDistances(t *testing.T) {
	p, _ := trace.TraceByName(trace.GroupSysmarkNT, "ex")
	run := func(dist int) Stats {
		cfg := DefaultConfig()
		cfg.Scheme = memdep.Exclusive
		cfg.CHT = extremeCHT{dist}
		return NewEngine(cfg, trace.Replay(p)).Run(10_000)
	}
	// Colliding with no distance information: wait for every older store.
	conservative := run(memdep.NoDistance)
	// A negative distance carries no usable store identity and must degrade
	// to exactly the no-distance behavior.
	for _, d := range []int{-1, math.MinInt + 1, math.MinInt} {
		if got := run(d); got != conservative {
			t.Fatalf("distance %d diverged from the no-distance run:\nwant %+v\ngot  %+v",
				d, conservative, got)
		}
	}
	// A distance beyond every in-flight store waits for nothing, so every
	// load advances immediately — the Opportunistic schedule. The run must
	// terminate (pre-clamp, an overflowed maxID sent StoresComplete walking
	// an astronomically long id range) and reproduce that schedule.
	oppCfg := DefaultConfig()
	oppCfg.Scheme = memdep.Opportunistic
	opp := NewEngine(oppCfg, trace.Replay(p)).Run(10_000)
	for _, d := range []int{1 << 40, math.MaxInt} {
		got := run(d)
		if got.Uops != conservative.Uops {
			t.Fatalf("distance %d: simulated %d uops, want %d", d, got.Uops, conservative.Uops)
		}
		if got.Cycles != opp.Cycles || got.Collisions != opp.Collisions {
			t.Fatalf("distance %d (cycles=%d collisions=%d) != Opportunistic (cycles=%d collisions=%d)",
				d, got.Cycles, got.Collisions, opp.Cycles, opp.Collisions)
		}
	}
}

// allowAllPolicy overrides one decision of the default policy: every load
// may pass every store — the Opportunistic scheme expressed as a custom
// policy instead of a cycle-loop edit.
type allowAllPolicy struct{ SpeculationPolicy }

func (allowAllPolicy) AllowOrdering(*LoadView, MOBView) bool { return true }

// TestNewPolicyOverridesOrdering checks a custom policy actually steers the
// schedule stage: an always-allow ordering policy on a Traditional machine
// must match the built-in Opportunistic scheme.
func TestNewPolicyOverridesOrdering(t *testing.T) {
	p, _ := trace.TraceByName(trace.GroupSysmarkNT, "ex")
	oppCfg := DefaultConfig()
	oppCfg.Scheme = memdep.Opportunistic
	opp := NewEngine(oppCfg, trace.Replay(p)).Run(20000)

	cfg := DefaultConfig() // Traditional
	cfg.NewPolicy = func(deps PolicyDeps) SpeculationPolicy {
		return allowAllPolicy{DefaultPolicy(cfg, deps)}
	}
	got := NewEngine(cfg, trace.Replay(p)).Run(20000)
	if got.Cycles != opp.Cycles || got.Collisions != opp.Collisions {
		t.Fatalf("always-allow policy (cycles=%d collisions=%d) != Opportunistic (cycles=%d collisions=%d)",
			got.Cycles, got.Collisions, opp.Cycles, opp.Collisions)
	}
	if got.Collisions == 0 {
		t.Fatal("expected the advanced loads to collide sometimes")
	}
}
