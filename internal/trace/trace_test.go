package trace

import (
	"bytes"
	"testing"

	"loadsched/internal/uop"
)

func testProfile() Profile {
	return Profile{Name: "test", Seed: 1}.withDefaults()
}

func TestDeterminism(t *testing.T) {
	a := Collect(testProfile(), 5000)
	b := Collect(testProfile(), 5000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("uop %d differs between identical generators:\n%v\n%v", i, a[i], b[i])
		}
	}
}

// TestSeqDense: uops carry no Seq, so WriteTrace numbers them by stream
// position. Every chunk of the file it writes must decode to Seq values
// dense from 0 across chunk boundaries, in the dense form that stores no
// Seq stream.
func TestSeqDense(t *testing.T) {
	const n = 2*ChunkUops + 500
	var buf bytes.Buffer
	if err := WriteTrace(&buf, New(testProfile()), n); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(buf.Bytes()[16:])
	var payload []byte
	var c packedChunk
	var v ChunkView
	for total := 0; total < n; {
		m, err := readChunkFrame(r, &payload, &c, &v, uint64(n-total))
		if err != nil {
			t.Fatal(err)
		}
		if !c.dense {
			t.Fatalf("chunk at uop %d is not dense", total)
		}
		for i := 0; i < m; i++ {
			if v.seqs[i] != int64(total+i) {
				t.Fatalf("uop %d has Seq=%d", total+i, v.seqs[i])
			}
		}
		total += m
	}
}

// TestSTAAlwaysPrecedesSTD: store halves alternate STA, STD, STA, ...
// from the first, which is what lets a store's id be its rank among the
// STAs and its STD take the id of the STA before it.
func TestSTAAlwaysPrecedesSTD(t *testing.T) {
	us := Collect(testProfile(), 20000)
	stores := 0
	want := uop.STA
	for i, u := range us {
		if !u.Kind.IsStorePart() {
			continue
		}
		if u.Kind != want {
			t.Fatalf("uop %d: %s where the next store half must be an %s", i, u.Kind, want)
		}
		if want == uop.STA {
			stores++
			want = uop.STD
		} else {
			want = uop.STA
		}
	}
	if stores == 0 {
		t.Fatal("trace contains no stores")
	}
}

func TestMemoryUopsHaveAddresses(t *testing.T) {
	us := Collect(testProfile(), 20000)
	for _, u := range us {
		if u.HasMemAddr() && u.Addr == 0 {
			t.Fatalf("memory uop without address: %v", u)
		}
		if !u.HasMemAddr() && u.Addr != 0 {
			t.Fatalf("non-memory uop with address: %v", u)
		}
	}
}

func TestInstructionMixPlausible(t *testing.T) {
	us := Collect(testProfile(), 100000)
	counts := map[uop.Kind]int{}
	for _, u := range us {
		counts[u.Kind]++
	}
	n := float64(len(us))
	loadFrac := float64(counts[uop.Load]) / n
	storeFrac := float64(counts[uop.STA]) / n
	branchFrac := float64(counts[uop.Branch]) / n
	if loadFrac < 0.1 || loadFrac > 0.45 {
		t.Errorf("load fraction %.3f outside [0.1, 0.45]", loadFrac)
	}
	if storeFrac < 0.03 || storeFrac > 0.3 {
		t.Errorf("store fraction %.3f outside [0.03, 0.3]", storeFrac)
	}
	if branchFrac < 0.05 || branchFrac > 0.35 {
		t.Errorf("branch fraction %.3f outside [0.05, 0.35]", branchFrac)
	}
	if counts[uop.STA] != counts[uop.STD] && abs(counts[uop.STA]-counts[uop.STD]) > 1 {
		t.Errorf("STA count %d != STD count %d", counts[uop.STA], counts[uop.STD])
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestLoadsRecur(t *testing.T) {
	// History-based prediction requires static loads to recur: the number of
	// distinct load IPs must be far smaller than the number of dynamic loads.
	us := Collect(testProfile(), 100000)
	ips := map[uint32]int{}
	loads := 0
	for _, u := range us {
		if u.Kind == uop.Load {
			ips[u.IP]++
			loads++
		}
	}
	if len(ips) == 0 {
		t.Fatal("no loads")
	}
	meanRecurrence := float64(loads) / float64(len(ips))
	if meanRecurrence < 20 {
		t.Errorf("mean load recurrence %.1f too low for history predictors", meanRecurrence)
	}
}

func TestStoreLoadPairsExist(t *testing.T) {
	// Parameter passing and local-variable traffic must create store→load
	// pairs at short dynamic distances — the raw material for collisions.
	us := Collect(testProfile(), 50000)
	lastStore := map[uint32]int{} // addr → stream position of the last STA
	pairs := 0
	for i, u := range us {
		switch u.Kind {
		case uop.STA:
			lastStore[u.Addr] = i
		case uop.Load:
			if s, ok := lastStore[u.Addr]; ok && i-s < 64 {
				pairs++
			}
		}
	}
	if pairs < 100 {
		t.Errorf("only %d short-distance store→load pairs in 50k uops", pairs)
	}
}

func TestBranchMispredictRatePlausible(t *testing.T) {
	us := Collect(testProfile(), 100000)
	branches, mispredicts := 0, 0
	for _, u := range us {
		if u.Kind == uop.Branch {
			branches++
			if u.Mispredicted {
				mispredicts++
			}
		}
	}
	rate := float64(mispredicts) / float64(branches)
	if rate < 0.001 || rate > 0.25 {
		t.Errorf("branch mispredict rate %.3f outside [0.001, 0.25]", rate)
	}
}

func TestStackAddressesBelowBase(t *testing.T) {
	us := Collect(testProfile(), 20000)
	for _, u := range us {
		if u.HasMemAddr() && uint64(u.Addr) > stackBase {
			t.Fatalf("address above stack base: %v", u)
		}
	}
}

func TestGroups(t *testing.T) {
	gs := Groups()
	if len(gs) != 7 {
		t.Fatalf("expected 7 groups, got %d", len(gs))
	}
	wantSizes := map[string]int{
		GroupSpecInt95: 8, GroupSpecFP95: 10, GroupSysmarkNT: 8,
		GroupSysmark95: 8, GroupGames: 5, GroupJava: 5, GroupTPC: 2,
	}
	total := 0
	for _, g := range gs {
		if len(g.Traces) != wantSizes[g.Name] {
			t.Errorf("group %s has %d traces, want %d", g.Name, len(g.Traces), wantSizes[g.Name])
		}
		total += len(g.Traces)
		seen := map[int64]bool{}
		for _, tr := range g.Traces {
			if tr.Name == "" {
				t.Errorf("group %s has unnamed trace", g.Name)
			}
			if seen[tr.Seed] {
				t.Errorf("group %s has duplicate seed %d", g.Name, tr.Seed)
			}
			seen[tr.Seed] = true
		}
	}
	if total != 46 {
		t.Errorf("total traces = %d, want 46 as in the paper", total)
	}
}

func TestGroupByName(t *testing.T) {
	if _, ok := GroupByName("NoSuchGroup"); ok {
		t.Fatal("unknown group should not resolve")
	}
	g, ok := GroupByName(GroupSysmarkNT)
	if !ok || g.Name != GroupSysmarkNT {
		t.Fatal("SysmarkNT should resolve")
	}
	want := []string{"cd", "ex", "fl", "pd", "pm", "pp", "wd", "wp"}
	for i, tr := range g.Traces {
		if tr.Name != want[i] {
			t.Errorf("NT trace %d = %q, want %q (paper Fig 7 names)", i, tr.Name, want[i])
		}
	}
}

// TestGroupsReturnCopies: the groups are built once, so a caller that
// edits the traces it was handed must not change what the next call
// returns.
func TestGroupsReturnCopies(t *testing.T) {
	g, _ := GroupByName(GroupSpecInt95)
	want := append([]Profile(nil), g.Traces...) // a snapshot no call shares
	g.Traces[0].Seed++
	g.Traces[1].Name = "edited"
	for _, all := range Groups() {
		if all.Name == GroupSpecInt95 {
			all.Traces[0].CallFrac = 0
		}
	}
	again, _ := GroupByName(GroupSpecInt95)
	for i := range want {
		if again.Traces[i] != want[i] {
			t.Fatalf("trace %d after edits to returned slices: %+v, want %+v", i, again.Traces[i], want[i])
		}
	}
	if p, _ := TraceByName(GroupSpecInt95, want[0].Name); p != want[0] {
		t.Fatalf("TraceByName after edits: %+v, want %+v", p, want[0])
	}
}

func TestTraceByName(t *testing.T) {
	p, ok := TraceByName(GroupSpecInt95, "gcc")
	if !ok || p.Name != "gcc" {
		t.Fatal("SpecInt95/gcc should resolve")
	}
	if _, ok := TraceByName(GroupSpecInt95, "nope"); ok {
		t.Fatal("unknown trace should not resolve")
	}
}

func TestGroupTracesDiffer(t *testing.T) {
	g, _ := GroupByName(GroupSpecInt95)
	a := Collect(g.Traces[0], 2000)
	b := Collect(g.Traces[1], 2000)
	same := 0
	for i := range a {
		if a[i].IP == b[i].IP && a[i].Kind == b[i].Kind {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("two traces of a group are identical")
	}
}

func TestGroupCharacteristics(t *testing.T) {
	// SpecFP must have a larger stream share and fewer calls than SysmarkNT;
	// this is what makes FP misses more predictable in Fig 10.
	fp := baseProfile(GroupSpecFP95)
	nt := baseProfile(GroupSysmarkNT)
	if fp.StreamFrac <= nt.StreamFrac {
		t.Error("SpecFP should stream more than SysmarkNT")
	}
	if fp.CallFrac >= nt.CallFrac {
		t.Error("SysmarkNT should call more than SpecFP")
	}
	tpc := baseProfile(GroupTPC)
	if tpc.ChaseWorkingSet <= nt.ChaseWorkingSet {
		t.Error("TPC should have a larger irregular working set than NT")
	}
}

func TestCallDepthBounded(t *testing.T) {
	p := testProfile()
	p.MaxCallDepth = 3
	g := New(p)
	maxDepth := 0
	for i := 0; i < 50000; i++ {
		g.Next()
		if d := len(g.stack); d > maxDepth {
			maxDepth = d
		}
	}
	if maxDepth > 3 {
		t.Fatalf("call depth %d exceeds MaxCallDepth 3", maxDepth)
	}
}

func TestWithDefaultsFillsEverything(t *testing.T) {
	p := Profile{}.withDefaults()
	if p.NumFuncs == 0 || p.LoadFrac == 0 || p.StreamWorkingSet == 0 || p.UopsPerInstr == 0 {
		t.Fatalf("withDefaults left zero fields: %+v", p)
	}
}
