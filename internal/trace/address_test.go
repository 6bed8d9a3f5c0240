package trace

import (
	"testing"
	"testing/quick"

	"loadsched/internal/uop"
)

// TestParamStoresMatchParamLoads verifies the paper's "push/load parameter
// pairs" idiom end to end: outgoing parameter stores must be read by the
// callee's incoming parameter loads at exactly the same addresses, within a
// short dynamic distance.
func TestParamStoresMatchParamLoads(t *testing.T) {
	p := Profile{Name: "pm", Seed: 11, CallFrac: 0.6, MeanParams: 2}.withDefaults()
	us := Collect(p, 60000)
	// For every STA, look ahead a short distance for a load to that address.
	matched, stores := 0, 0
	byAddr := map[uint64]int{} // addr → stream position of the last STA
	for i, u := range us {
		switch u.Kind {
		case uop.STA:
			stores++
			byAddr[u.Addr] = i
		case uop.Load:
			if s, ok := byAddr[u.Addr]; ok && i-s <= 96 {
				matched++
				delete(byAddr, u.Addr)
			}
		}
	}
	if stores == 0 {
		t.Fatal("no stores")
	}
	frac := float64(matched) / float64(stores)
	if frac < 0.2 {
		t.Fatalf("only %.1f%% of stores are reloaded nearby (need parameter/local traffic)", 100*frac)
	}
}

// TestStreamLoadsPeriodicPerIP verifies the property the hit-miss local
// predictor depends on: a stream load site's accesses advance by a fixed
// stride, so its cache-line crossings are periodic.
func TestStreamLoadsPeriodicPerIP(t *testing.T) {
	p := Profile{Name: "st", Seed: 3, StreamFrac: 0.6, ChaseFrac: 0, GlobalFrac: 0.1}.withDefaults()
	us := Collect(p, 80000)
	// Find the stream load site with the most dynamic instances.
	perIP := map[uint64][]uint64{}
	for _, u := range us {
		if u.Kind == uop.Load && u.Addr >= streamBase && u.Addr < chaseBase {
			perIP[u.IP] = append(perIP[u.IP], u.Addr)
		}
	}
	var best uint64
	for ip, addrs := range perIP {
		if len(addrs) > len(perIP[best]) {
			best = ip
		}
	}
	addrs := perIP[best]
	if len(addrs) < 32 {
		t.Skip("stream site recurred too rarely in this window")
	}
	strideCount := map[int64]int{}
	for i := 1; i < len(addrs); i++ {
		strideCount[int64(addrs[i])-int64(addrs[i-1])]++
	}
	// The dominant stride must cover almost all steps (wrap-around is the
	// exception).
	dominant := 0
	for _, c := range strideCount {
		if c > dominant {
			dominant = c
		}
	}
	if float64(dominant)/float64(len(addrs)-1) < 0.95 {
		t.Fatalf("stream site stride not stable: %v", strideCount)
	}
}

// TestFrameAddressDiscipline: frame accesses stay within the owning frame —
// below the stack base and above the deepest callee frame.
func TestFrameAddressDiscipline(t *testing.T) {
	p := testProfile()
	g := New(p)
	minSP := stackBase
	for i := 0; i < 60000; i++ {
		u := g.Next()
		if !u.HasMemAddr() || u.Addr > stackBase || u.Addr < stackBase-(1<<24) {
			continue // non-stack access
		}
		if u.Addr > stackBase {
			t.Fatalf("stack access above base: %v", u)
		}
		if u.Addr < minSP {
			minSP = u.Addr
		}
	}
	if stackBase-minSP > 1<<20 {
		t.Fatalf("stack grew unboundedly: %#x below base", stackBase-minSP)
	}
}

// TestAddressRegionsDisjoint: the four address-stream families live in
// disjoint regions, so collisions only arise from intended idioms.
func TestAddressRegionsDisjoint(t *testing.T) {
	regions := []struct {
		name   string
		lo, hi uint64
	}{
		{"globals", globalBase, globalBase + 1<<20},
		{"streams", streamBase, chaseBase},
		{"chase", chaseBase, chaseBase + 1<<28},
		{"stack", stackBase - 1<<24, stackBase},
	}
	for i := range regions {
		for j := i + 1; j < len(regions); j++ {
			a, b := regions[i], regions[j]
			if a.lo < b.hi && b.lo < a.hi {
				t.Fatalf("regions %s and %s overlap", a.name, b.name)
			}
		}
	}
	us := Collect(testProfile(), 40000)
	for _, u := range us {
		if !u.HasMemAddr() {
			continue
		}
		in := false
		for _, r := range regions {
			if u.Addr >= r.lo && u.Addr < r.hi {
				in = true
				break
			}
		}
		if !in {
			t.Fatalf("address %#x outside every region (%v)", u.Addr, u)
		}
	}
}

// TestPropertySeedsIndependent: different seeds generate different streams
// while each remains internally deterministic.
func TestPropertySeedsIndependent(t *testing.T) {
	f := func(seed1, seed2 int64) bool {
		if seed1 == seed2 {
			return true
		}
		p1 := Profile{Name: "a", Seed: seed1}.withDefaults()
		p2 := Profile{Name: "a", Seed: seed2}.withDefaults()
		a1, a2 := Collect(p1, 300), Collect(p2, 300)
		same := 0
		for i := range a1 {
			if a1[i].IP == a2[i].IP {
				same++
			}
		}
		return same < len(a1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestStoreIDsDense: store ids are dense and strictly increasing in program
// order — the engine's MOB indexes on that.
func TestStoreIDsDense(t *testing.T) {
	us := Collect(testProfile(), 50000)
	var last int64
	for _, u := range us {
		if u.Kind == uop.STA {
			if u.StoreID != last+1 {
				t.Fatalf("store id %d after %d", u.StoreID, last)
			}
			last = u.StoreID
		}
	}
	if last == 0 {
		t.Fatal("no stores")
	}
}

// TestGeneratorProfileEcho ensures Profile() reflects applied defaults.
func TestGeneratorProfileEcho(t *testing.T) {
	g := New(Profile{Name: "x", Seed: 1})
	p := g.Profile()
	if p.NumFuncs == 0 || p.LoadFrac == 0 {
		t.Fatal("Profile() should return the defaulted profile")
	}
}
