package hitmiss

import (
	"math/rand"
	"testing"

	"loadsched/internal/cache"
)

func TestAlwaysHit(t *testing.T) {
	p := AlwaysHit{}
	if !p.PredictHit(1, 2, 3) {
		t.Fatal("AlwaysHit must predict hit")
	}
	p.Update(1, 2, 3, false) // must not panic
	if p.Name() != "always-hit" {
		t.Fatal("name")
	}
}

func TestLocalDefaultsToHit(t *testing.T) {
	p := NewLocal()
	if !p.PredictHit(0x400100, 0, 0) {
		t.Fatal("unwarmed predictor must default to hit (the >95% case)")
	}
}

func TestLocalLearnsAlwaysMissLoad(t *testing.T) {
	p := NewLocal()
	ip := uint64(0x400100)
	for i := 0; i < 20; i++ {
		p.Update(ip, 0, 0, false)
	}
	if p.PredictHit(ip, 0, 0) {
		t.Fatal("load that always misses must be predicted miss")
	}
	// And a different load is unaffected.
	if !p.PredictHit(0x500100, 0, 0) {
		t.Fatal("other loads must still default to hit")
	}
}

func TestLocalLearnsPeriodicMissPattern(t *testing.T) {
	// A streaming load misses every 8th access (64B line / 8B stride). The
	// 8-deep local history must catch most of these.
	p := NewLocal()
	ip := uint64(0x400100)
	step := 0
	outcome := func() bool { return step%8 != 0 } // hit except every 8th
	for i := 0; i < 400; i++ {
		p.Update(ip, 0, 0, outcome())
		step++
	}
	correct, total := 0, 0
	for i := 0; i < 400; i++ {
		if p.PredictHit(ip, 0, 0) == outcome() {
			correct++
		}
		total++
		p.Update(ip, 0, 0, outcome())
		step++
	}
	if acc := float64(correct) / float64(total); acc < 0.95 {
		t.Fatalf("local accuracy on period-8 miss pattern = %.3f", acc)
	}
}

func TestChooserLearns(t *testing.T) {
	p := NewChooser()
	missIP, hitIP := uint64(0x400100), uint64(0x400200)
	for i := 0; i < 200; i++ {
		p.Update(missIP, 0, 0, false)
		p.Update(hitIP, 0, 0, true)
	}
	if p.PredictHit(missIP, 0, 0) {
		t.Fatal("chooser should predict miss for an always-missing load")
	}
	if !p.PredictHit(hitIP, 0, 0) {
		t.Fatal("chooser should predict hit for an always-hitting load")
	}
}

func TestChooserMoreConservativeThanLocal(t *testing.T) {
	// On a noisy load (30% misses, random), the chooser's majority vote
	// should produce fewer miss predictions (fewer AH-PM) than local alone —
	// the paper's stated motivation for the hybrid.
	rng := rand.New(rand.NewSource(11))
	local, chooser := NewLocal(), NewChooser()
	ip := uint64(0x400100)
	localPM, chooserPM, hits := 0, 0, 0
	for i := 0; i < 5000; i++ {
		hit := rng.Float64() > 0.3
		if hit {
			hits++
			if !local.PredictHit(ip, 0, 0) {
				localPM++
			}
			if !chooser.PredictHit(ip, 0, 0) {
				chooserPM++
			}
		}
		local.Update(ip, 0, 0, hit)
		chooser.Update(ip, 0, 0, hit)
	}
	if chooserPM > localPM {
		t.Fatalf("chooser AH-PM (%d) should not exceed local AH-PM (%d) on noise", chooserPM, localPM)
	}
}

func TestPerfectOracle(t *testing.T) {
	h := cache.NewHierarchy(cache.DefaultHierarchyConfig())
	p := &Perfect{Hierarchy: h}
	if p.PredictHit(0, 0x4000, 0) {
		t.Fatal("cold line must be predicted miss")
	}
	h.Access(0x4000)
	if !p.PredictHit(0, 0x4000, 0) {
		t.Fatal("resident line must be predicted hit")
	}
}

func TestTimingDynamicMiss(t *testing.T) {
	q := cache.NewMissQueue(8)
	tp := NewTiming(AlwaysHit{}, q)
	// A fill for line 0x8000 is in flight until cycle 100.
	q.RecordMiss(0x8000, 100)
	if tp.PredictHit(0x400100, 0x8010, 50) {
		t.Fatal("access to an outstanding line must be predicted miss")
	}
	// After the fill completes it is recently serviced → hit.
	if !tp.PredictHit(0x400100, 0x8010, 150) {
		t.Fatal("recently serviced line must be predicted hit")
	}
	// Unrelated lines defer to the base predictor (always-hit).
	if !tp.PredictHit(0x400100, 0xF000, 50) {
		t.Fatal("unknown line must defer to base")
	}
}

func TestTimingOverridesHistory(t *testing.T) {
	q := cache.NewMissQueue(8)
	base := NewLocal()
	ip := uint64(0x400100)
	for i := 0; i < 20; i++ {
		base.Update(ip, 0, 0, false) // history says miss
	}
	tp := NewTiming(base, q)
	q.RecordMiss(0x8000, 100)
	q.Advance(150)
	if !tp.PredictHit(ip, 0x8000, 160) {
		t.Fatal("recently-serviced must override a miss history")
	}
}

// TestTimingResetAndName: Timing has no Reset; an engine builds a fresh one
// over a fresh queue, whose reset state has nothing outstanding or recently
// serviced, so the base predictor decides.
func TestTimingResetAndName(t *testing.T) {
	base := NewLocal()
	ip := uint64(0x400100)
	for i := 0; i < 20; i++ {
		base.Update(ip, 0, 0, false) // history says miss
	}
	tp := NewTiming(base, cache.NewMissQueue(8))
	if tp.Name() != "local+timing" {
		t.Fatalf("name = %q", tp.Name())
	}
	if tp.PredictHit(ip, 0x8000, 50) {
		t.Fatal("a fresh queue must leave the miss history in charge")
	}
}

func TestOutcomesAccounting(t *testing.T) {
	var o Outcomes
	o.Record(true, true)
	o.Record(true, false)
	o.Record(false, true)
	o.Record(false, false)
	o.Record(false, false)
	if o.AHPH != 1 || o.AHPM != 1 || o.AMPH != 1 || o.AMPM != 2 {
		t.Fatalf("tallies wrong: %+v", o)
	}
	if o.Loads() != 5 || o.Misses() != 3 {
		t.Fatalf("derived counts wrong: loads=%d misses=%d", o.Loads(), o.Misses())
	}
	if o.Frac(o.Misses()) != 0.6 {
		t.Fatalf("Frac = %v", o.Frac(o.Misses()))
	}
	var sum Outcomes
	sum.Add(o)
	sum.Add(o)
	if sum.Loads() != 10 {
		t.Fatal("Add broken")
	}
	var empty Outcomes
	if empty.Frac(3) != 0 {
		t.Fatal("empty Frac must be 0")
	}
}

// TestResetClearsLearning: the predictors have no Reset; each engine builds
// its own, so a fresh build must start in the reset state (predict a hit,
// the WithInit(0) fill) and share no learning with one built before it.
func TestResetClearsLearning(t *testing.T) {
	for _, mk := range []func() Predictor{NewLocal, NewChooser} {
		p := mk()
		ip := uint64(0x400100)
		if !p.PredictHit(ip, 0, 0) {
			t.Fatalf("%s: fresh predictor does not predict a hit", p.Name())
		}
		for i := 0; i < 50; i++ {
			p.Update(ip, 0, 0, false)
		}
		if p.PredictHit(ip, 0, 0) {
			t.Fatalf("%s: did not learn", p.Name())
		}
		if !mk().PredictHit(ip, 0, 0) {
			t.Fatalf("%s: a fresh build inherited the trained predictor's learning", p.Name())
		}
	}
}
