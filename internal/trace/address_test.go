package trace

import (
	"bytes"
	"fmt"
	"strings"
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
	byAddr := map[uint32]int{} // addr → stream position of the last STA
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
	perIP := map[uint32][]uint32{}
	for _, u := range us {
		if a := uint64(u.Addr); u.Kind == uop.Load && a >= streamBase && a < chaseBase {
			perIP[u.IP] = append(perIP[u.IP], u.Addr)
		}
	}
	var best uint32
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
		a := uint64(u.Addr)
		if !u.HasMemAddr() || a > stackBase || a < stackBase-(1<<24) {
			continue // non-stack access
		}
		if a > stackBase {
			t.Fatalf("stack access above base: %v", &u)
		}
		if a < minSP {
			minSP = a
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
			if a := uint64(u.Addr); a >= r.lo && a < r.hi {
				in = true
				break
			}
		}
		if !in {
			t.Fatalf("address %#x outside every region (%v)", u.Addr, &u)
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

// TestStoreIDsDense: the StoreIDs WriteTrace records are dense and rise in
// program order — the k-th STA carries k and its STD the same — which is
// the numbering the engine's MOB gives stores at rename.
func TestStoreIDsDense(t *testing.T) {
	const n = 50000
	var buf bytes.Buffer
	if err := WriteTrace(&buf, New(testProfile()), n); err != nil {
		t.Fatal(err)
	}
	sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var last int64
	for total := int64(0); total < n; {
		m, err := sr.readChunk(total)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < m; i++ {
			switch sid := sr.view.sids[i]; sr.view.us[i].Kind {
			case uop.STA:
				if sid != last+1 {
					t.Fatalf("record %d: STA id %d after %d", total+int64(i), sid, last)
				}
				last = sid
			case uop.STD:
				if sid != last {
					t.Fatalf("record %d: STD id %d, its STA's is %d", total+int64(i), sid, last)
				}
			}
		}
		total += int64(m)
	}
	if last == 0 {
		t.Fatal("no stores")
	}
}

// TestBuiltinProfilesFitBelowStack: every built-in trace's global, stream
// and chase regions end below the stack base, so the 32-bit check New
// applies never refuses one and no region runs into the stack.
func TestBuiltinProfilesFitBelowStack(t *testing.T) {
	for _, g := range Groups() {
		for _, p := range g.Traces {
			if err := p.withDefaults().checkAddressSpace(stackBase); err != nil {
				t.Errorf("%s/%s: %v", g.Name, p.Name, err)
			}
		}
	}
}

// TestNewRefusesWideProfiles: a profile whose regions can pass 2^32 is a
// programming error, and New panics on it naming the region.
func TestNewRefusesWideProfiles(t *testing.T) {
	for _, tc := range []struct {
		p    Profile
		want string
	}{
		{Profile{Name: "globals", NumGlobals: 1 << 30}, "globals"},
		{Profile{Name: "streams", NumStreams: 241}, "streams"},
		{Profile{Name: "stream-ws", StreamWorkingSet: 1 << 32}, "streams"},
		{Profile{Name: "negative-ws", StreamWorkingSet: -8}, "streams"},
		{Profile{Name: "chase", ChaseWorkingSet: 3<<30 + 64}, "chase"},
		{Profile{Name: "negative-chase", ChaseWorkingSet: -64}, "chase"},
	} {
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			New(tc.p)
			return ""
		}()
		if !strings.Contains(msg, tc.want) || !strings.Contains(msg, tc.p.Name) {
			t.Errorf("New(%s): panic %q, want one naming %q", tc.p.Name, msg, tc.want)
		}
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
