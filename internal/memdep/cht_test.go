package memdep

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSchemeString(t *testing.T) {
	want := map[Scheme]string{
		Traditional:   "Traditional",
		Opportunistic: "Opportunistic",
		Postponing:    "Postponing",
		Inclusive:     "Inclusive",
		Exclusive:     "Exclusive",
		Perfect:       "Perfect",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q want %q", s, s.String(), w)
		}
	}
	if len(Schemes()) != 6 {
		t.Fatal("paper defines six ordering schemes")
	}
}

func TestSchemeUsesCHT(t *testing.T) {
	for _, s := range []Scheme{Postponing, Inclusive, Exclusive} {
		if !s.UsesCHT() {
			t.Errorf("%v should use a CHT", s)
		}
	}
	for _, s := range []Scheme{Traditional, Opportunistic, Perfect} {
		if s.UsesCHT() {
			t.Errorf("%v should not use a CHT", s)
		}
	}
}

func allPredictors() map[string]Predictor {
	return map[string]Predictor{
		"full":     NewFullCHT(256, 4, 2, true),
		"implicit": NewImplicitCHT(256, 4, true),
		"tagless":  NewTaglessCHT(1024, 1, true),
		"combined": NewCombinedCHT(256, 4, 1024, true),
	}
}

func TestDefaultPredictionNonColliding(t *testing.T) {
	for name, p := range allPredictors() {
		if p.Lookup(0x400100).Colliding {
			t.Errorf("%s: empty table must predict non-colliding", name)
		}
	}
}

func TestLearnCollidingLoad(t *testing.T) {
	for name, p := range allPredictors() {
		p.Record(0x400100, true, 3)
		p.Record(0x400100, true, 3)
		got := p.Lookup(0x400100)
		if !got.Colliding {
			t.Errorf("%s: load that collided twice must be predicted colliding", name)
		}
		if got.Distance != 3 {
			t.Errorf("%s: distance = %d want 3", name, got.Distance)
		}
	}
}

func TestDistanceConvergesToMinimum(t *testing.T) {
	for name, p := range allPredictors() {
		p.Record(0x400100, true, 9)
		p.Record(0x400100, true, 4)
		p.Record(0x400100, true, 7)
		if d := p.Lookup(0x400100).Distance; d != 4 {
			t.Errorf("%s: distance = %d, want minimum 4", name, d)
		}
	}
}

func TestFullCHTAllocatesOnlyOnCollision(t *testing.T) {
	c := NewFullCHT(256, 4, 2, false)
	for i := 0; i < 100; i++ {
		c.Record(uint64(0x400000+i*4), false, NoDistance)
	}
	// The table must still be empty: a colliding load maps to an empty way.
	if c.table.find(0x400000, false) != nil {
		t.Fatal("non-colliding retires must not allocate entries")
	}
}

func TestFullCHTForgetsChangedBehavior(t *testing.T) {
	// The Full CHT's counter lets a load change from colliding back to
	// non-colliding — the property the paper credits it for (fewest ANC-PC).
	c := NewFullCHT(256, 4, 2, false)
	ip := uint64(0x400100)
	for i := 0; i < 4; i++ {
		c.Record(ip, true, 1)
	}
	if !c.Lookup(ip).Colliding {
		t.Fatal("should predict colliding after collisions")
	}
	for i := 0; i < 4; i++ {
		c.Record(ip, false, NoDistance)
	}
	if c.Lookup(ip).Colliding {
		t.Fatal("2-bit counter should unlearn after repeated non-collisions")
	}
}

func TestImplicitCHTIsSticky(t *testing.T) {
	c := NewImplicitCHT(256, 4, false)
	ip := uint64(0x400100)
	c.Record(ip, true, 1)
	for i := 0; i < 100; i++ {
		c.Record(ip, false, NoDistance)
	}
	if !c.Lookup(ip).Colliding {
		t.Fatal("tag-only predictor must stay colliding (sticky)")
	}
}

func TestTaglessAliasing(t *testing.T) {
	c := NewTaglessCHT(16, 1, false)
	// Two IPs 16 entries apart share an index (ip>>2 mod 16).
	a, b := uint64(0x1000), uint64(0x1000+16*4)
	c.Record(a, true, 1)
	if !c.Lookup(b).Colliding {
		t.Fatal("aliased IP should see the colliding state (interference)")
	}
	big := NewTaglessCHT(1<<16, 1, false)
	big.Record(a, true, 1)
	if big.Lookup(b).Colliding {
		t.Fatal("a large table must separate these IPs")
	}
}

func TestCombinedSemantics(t *testing.T) {
	c := NewCombinedCHT(256, 4, 1024, false)
	ipTagged := uint64(0x400100)
	c.tagged.Record(ipTagged, true, NoDistance)
	if !c.Lookup(ipTagged).Colliding {
		t.Fatal("tag match must predict colliding")
	}
	ipTagless := uint64(0x800000)
	c.tagless.Record(ipTagless, true, NoDistance)
	if !c.Lookup(ipTagless).Colliding {
		t.Fatal("tagless colliding state must predict colliding")
	}
	// 0x900004 aliases with neither recorded IP in the 1024-entry tagless
	// table (index 1 vs 0) nor the tagged table.
	if c.Lookup(0x900004).Colliding {
		t.Fatal("no tag match and tagless non-colliding → non-colliding")
	}
}

func TestTableEviction(t *testing.T) {
	c := NewImplicitCHT(8, 2, false) // 4 sets × 2 ways
	// Fill one set (IPs congruent mod 4 after >>2) beyond capacity.
	ips := []uint64{0x10 << 2, 0x20 << 2, 0x30 << 2, 0x40 << 2}
	for _, ip := range ips[:3] {
		c.Record(ip<<2|0, true, 1) // shift to land in same set
	}
	_ = ips
	// Direct check with explicit same-set addresses: set = (ip>>2) % 4.
	a := uint64(4 * 4)  // index 4 → set 0
	b := uint64(8 * 4)  // index 8 → set 0
	d := uint64(12 * 4) // index 12 → set 0
	c2 := NewImplicitCHT(8, 2, false)
	c2.Record(a, true, 1)
	c2.Record(b, true, 1)
	c2.Record(a, true, 1) // refresh a
	c2.Record(d, true, 1) // evicts b (LRU)
	if !c2.Lookup(a).Colliding || !c2.Lookup(d).Colliding {
		t.Fatal("resident entries lost")
	}
	if c2.Lookup(b).Colliding {
		t.Fatal("LRU entry should have been evicted")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, f := range []func(){
		func() { newTagTable(100, 3) },
		func() { newTagTable(0, 1) },
		func() { NewTaglessCHT(1000, 1, false) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on bad geometry")
				}
			}()
			f()
		}()
	}
}

func TestStaticPredictors(t *testing.T) {
	if !(AlwaysColliding{}).Lookup(1).Colliding {
		t.Fatal("AlwaysColliding")
	}
	if (NeverColliding{}).Lookup(1).Colliding {
		t.Fatal("NeverColliding")
	}
}

func TestClassificationAccounting(t *testing.T) {
	c := Classification{Loads: 100, NotConflicting: 30, ANCPNC: 50, ANCPC: 8, ACPC: 9, ACPNC: 3}
	if c.AC() != 12 || c.ANC() != 58 || c.Conflicting() != 70 {
		t.Fatalf("derived counts wrong: AC=%d ANC=%d Conf=%d", c.AC(), c.ANC(), c.Conflicting())
	}
	if got := c.FracOfLoads(c.AC()); got != 0.12 {
		t.Fatalf("FracOfLoads = %v", got)
	}
	if got := c.FracOfConflicting(c.ACPC); got != 9.0/70.0 {
		t.Fatalf("FracOfConflicting = %v", got)
	}
	var sum Classification
	sum.Add(c)
	sum.Add(c)
	if sum.Loads != 200 || sum.AC() != 24 {
		t.Fatal("Add does not accumulate")
	}
	var empty Classification
	if empty.FracOfLoads(1) != 0 || empty.FracOfConflicting(1) != 0 {
		t.Fatal("empty classification fractions must be 0")
	}
}

func TestPropertyStickyNeverUnlearns(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewImplicitCHT(1024, 4, false)
		collided := map[uint64]bool{}
		for i := 0; i < 300; i++ {
			ip := uint64(rng.Intn(64)) * 4
			co := rng.Intn(4) == 0
			c.Record(ip, co, 1)
			if co {
				collided[ip] = true
			}
		}
		// With a table far larger than the IP set there are no evictions, so
		// every load that ever collided must be predicted colliding.
		for ip := range collided {
			if !c.Lookup(ip).Colliding {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCombinedAtLeastAsCollidingAsParts(t *testing.T) {
	// The combined predictor's colliding set is the union of its parts: it
	// can never predict non-colliding when the tagged part has a match.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewCombinedCHT(512, 4, 2048, false)
		for i := 0; i < 500; i++ {
			ip := uint64(rng.Intn(128)) * 4
			c.Record(ip, rng.Intn(3) == 0, 1)
		}
		for i := 0; i < 128; i++ {
			ip := uint64(i) * 4
			if c.tagged.Lookup(ip).Colliding && !c.Lookup(ip).Colliding {
				return false
			}
			if c.tagless.Lookup(ip).Colliding && !c.Lookup(ip).Colliding {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDistanceNeverIncreases(t *testing.T) {
	// The exclusive predictor's safety rests on the distance converging to
	// the minimum observed: once learned, it must never move farther out.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, p := range []Predictor{
			NewFullCHT(256, 4, 2, true),
			NewImplicitCHT(256, 4, true),
		} {
			ip := uint64(0x400100)
			min := 1 << 30
			for i := 0; i < 100; i++ {
				d := 1 + rng.Intn(20)
				p.Record(ip, true, d)
				if d < min {
					min = d
				}
				if got := p.Lookup(ip).Distance; got != min {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyFullCHTCounterHysteresis(t *testing.T) {
	// With a 2-bit counter, one contrary outcome never flips a saturated
	// prediction — the hysteresis that keeps the Full CHT stable.
	c := NewFullCHT(256, 4, 2, false)
	ip := uint64(0x400100)
	for i := 0; i < 4; i++ {
		c.Record(ip, true, 1)
	}
	c.Record(ip, false, NoDistance)
	if !c.Lookup(ip).Colliding {
		t.Fatal("one non-collision flipped a saturated counter")
	}
	c.Record(ip, false, NoDistance)
	c.Record(ip, false, NoDistance)
	if c.Lookup(ip).Colliding {
		t.Fatal("three non-collisions should unlearn")
	}
}
