package ooo

import (
	"testing"
	"unsafe"

	"loadsched/internal/bankpred"
	"loadsched/internal/cache"
	"loadsched/internal/hitmiss"
	"loadsched/internal/memdep"
	"loadsched/internal/trace"
	"loadsched/internal/uop"
)

// ---- banked-cache policies ----

// bankHeavyTrace issues pairs of independent loads to the same bank each
// round, so same-cycle bank conflicts are common.
func bankHeavyTrace(n int) []uop.UOp {
	var us []uop.UOp
	for i := 0; i < n; i++ {
		line := uint32(0x10000 + (i%64)*128) // even lines → all bank 0
		us = append(us,
			uop.UOp{IP: 0x400000, Op: uop.NewOp(uop.Load, 8), Dst: 8, Addr: line},
			uop.UOp{IP: 0x400004, Op: uop.NewOp(uop.Load, 8), Dst: 9, Addr: line + 8},
			uop.UOp{IP: 0x400008, Op: uop.NewOp(uop.IntALU, 0), Dst: 10, Src1: 8, Src2: 9},
		)
	}
	return us
}

func bankConfig(policy BankPolicy, pred bankpred.Predictor) Config {
	cfg := DefaultConfig()
	cfg.Scheme = memdep.Opportunistic
	cfg.BankPolicy = policy
	cfg.Banking = cache.DefaultBanking()
	cfg.BankPredictor = pred
	cfg.BankMispredictPenalty = 8
	return cfg
}

func TestBankConventionalConflicts(t *testing.T) {
	us := bankHeavyTrace(300)
	e := NewEngine(bankConfig(BankConventional, nil), newSliceSource(us))
	st := e.Run(len(us))
	if st.BankConflicts < 100 {
		t.Fatalf("expected frequent bank conflicts, got %d", st.BankConflicts)
	}
	ideal := NewEngine(bankConfig(BankOff, nil), newSliceSource(bankHeavyTrace(300))).Run(len(us))
	if st.IPC() > ideal.IPC() {
		t.Fatalf("banked (%.3f) cannot beat ideal multi-ported (%.3f)", st.IPC(), ideal.IPC())
	}
}

func TestBankSlicedDuplicatesUnpredicted(t *testing.T) {
	us := bankHeavyTrace(300)
	// No predictor: every load abstains and is duplicated to all pipes.
	e := NewEngine(bankConfig(BankSliced, nil), newSliceSource(us))
	st := e.Run(len(us))
	if st.BankDuplicates < 300 {
		t.Fatalf("unpredicted sliced loads must duplicate, got %d", st.BankDuplicates)
	}
	if st.BankMispredicts != 0 {
		t.Fatalf("abstaining predictor cannot mispredict, got %d", st.BankMispredicts)
	}
}

func TestBankSlicedPredictorLearns(t *testing.T) {
	us := bankHeavyTrace(600)
	e := NewEngine(bankConfig(BankSliced, bankpred.NewPredictorC()), newSliceSource(us))
	st := e.Run(len(us))
	// The two static loads have fixed banks; once warm, the predictor steers
	// them with few mispredictions and few duplications.
	if st.BankMispredicts > 100 {
		t.Fatalf("fixed-bank loads mispredicted %d times", st.BankMispredicts)
	}
}

func TestBankPredictiveAvoidsStalls(t *testing.T) {
	conv := NewEngine(bankConfig(BankConventional, nil), newSliceSource(bankHeavyTrace(500)))
	convStats := conv.Run(1500)
	pred := NewEngine(bankConfig(BankPredictive, bankpred.NewPredictorC()), newSliceSource(bankHeavyTrace(500)))
	predStats := pred.Run(1500)
	if predStats.BankConflicts > convStats.BankConflicts {
		t.Fatalf("prediction-guided scheduling should not increase conflicts: %d vs %d",
			predStats.BankConflicts, convStats.BankConflicts)
	}
}

func TestBankPolicyString(t *testing.T) {
	want := map[BankPolicy]string{
		BankOff: "ideal", BankConventional: "conventional",
		BankPredictive: "predict-sched", BankSliced: "sliced",
	}
	for p, w := range want {
		if p.String() != w {
			t.Errorf("%d = %q want %q", p, p.String(), w)
		}
	}
}

// ---- exclusive distance semantics ----

// distanceTrace: two stores (far ready-fast, near slow) and a load colliding
// with the FAR store only. Exclusive should learn distance 2 and stop
// waiting for the near store.
func distanceTrace(n int) []uop.UOp {
	var us []uop.UOp
	for i := 0; i < n; i++ {
		// Far store: collides with the load; its data arrives after a short
		// Complex chain, so the instantly-ready load sees it incomplete.
		us = append(us, uop.UOp{IP: 0x3ffff0, Op: uop.NewOp(uop.Complex, 0), Dst: 6})
		us = append(us,
			uop.UOp{IP: 0x400000, Op: uop.NewOp(uop.STA, 8), Addr: 0x3000},
			uop.UOp{IP: 0x400004, Op: uop.NewOp(uop.STD, 0), Src1: 6})
		// Near store: different address, much slower STA and STD.
		us = append(us,
			uop.UOp{IP: 0x400010, Op: uop.NewOp(uop.Complex, 0), Dst: 7},
			uop.UOp{IP: 0x400014, Op: uop.NewOp(uop.Complex, 0), Dst: 7, Src1: 7},
			uop.UOp{IP: 0x400016, Op: uop.NewOp(uop.Complex, 0), Dst: 7, Src1: 7})
		us = append(us,
			uop.UOp{IP: 0x400018, Op: uop.NewOp(uop.STA, 8), Addr: 0x4000, Src1: 7},
			uop.UOp{IP: 0x40001c, Op: uop.NewOp(uop.STD, 0), Src1: 7})
		// The load collides with the far store (distance 2).
		us = append(us, uop.UOp{IP: 0x400020, Op: uop.NewOp(uop.Load, 8), Dst: 8, Addr: 0x3000})
		for j := 0; j < 3; j++ {
			us = append(us, uop.UOp{IP: 0x400030 + uint32(j)*4, Op: uop.NewOp(uop.IntALU, 0), Dst: 8, Src1: 8})
		}
	}
	return us
}

func TestExclusiveBypassesNearStores(t *testing.T) {
	run := func(scheme memdep.Scheme) Stats {
		cfg := DefaultConfig()
		cfg.Scheme = scheme
		cfg.CHT = memdep.NewFullCHT(2048, 4, 2, true)
		us := distanceTrace(200)
		return NewEngine(cfg, newSliceSource(us)).Run(1500)
	}
	incl := run(memdep.Inclusive)
	excl := run(memdep.Exclusive)
	// Inclusive waits for the slow near store too; Exclusive (distance 2)
	// bypasses it.
	if excl.IPC() <= incl.IPC() {
		t.Fatalf("exclusive IPC %.3f should beat inclusive %.3f on distance-2 collisions",
			excl.IPC(), incl.IPC())
	}
}

// ---- hit-miss penalties ----

func TestAHPMDelaysDependents(t *testing.T) {
	// A predictor that always predicts miss on actually-hitting loads must
	// cost cycles versus always-hit on a hit-only trace.
	// A serial load→compute→load chain: every load's latency (including the
	// AH-PM hit-indication delay) lands on the critical path.
	var us []uop.UOp
	for i := 0; i < 50; i++ {
		us = append(us, uop.UOp{IP: 0x400000, Op: uop.NewOp(uop.Load, 8), Dst: 8, Src1: 8, Addr: 0x1000})
		for j := 0; j < 4; j++ {
			us = append(us, uop.UOp{IP: 0x400010 + uint32(j)*4, Op: uop.NewOp(uop.IntALU, 0), Dst: 8, Src1: 8})
		}
	}
	run := func(h hitmiss.Predictor) Stats {
		cfg := DefaultConfig()
		cfg.Scheme = memdep.Opportunistic
		cfg.HMP = h
		// Neutralize miss-side penalties so the cold first miss costs both
		// configurations the same and only the AH-PM delay differs.
		cfg.MissRecoveryBubble = 0
		cfg.MissReplayPenalty = 0
		cfg.MissReplayUops = 0
		return NewEngine(cfg, newSliceSource(us)).Run(len(us))
	}
	good := run(nil) // always-hit is right on this trace
	bad := run(alwaysMiss{})
	if bad.Cycles <= good.Cycles {
		t.Fatalf("AH-PM mispredictions (%d cycles) must cost more than AH-PH (%d)",
			bad.Cycles, good.Cycles)
	}
	if bad.HM.AHPM == 0 {
		t.Fatal("always-miss predictor produced no AH-PM events")
	}
}

type alwaysMiss struct{}

func (alwaysMiss) PredictHit(uint64, uint64, int64) bool { return false }
func (alwaysMiss) Update(uint64, uint64, int64, bool)    {}
func (alwaysMiss) Name() string                          { return "always-miss" }

func TestMissRecoveryBubbleCosts(t *testing.T) {
	p, _ := trace.TraceByName(trace.GroupSpecFP95, "swim")
	run := func(bubble int) float64 {
		cfg := DefaultConfig()
		cfg.Scheme = memdep.Perfect
		cfg.MissRecoveryBubble = bubble
		cfg.WarmupUops = 10000
		return NewEngine(cfg, trace.Replay(p)).Run(60000).IPC()
	}
	if with, without := run(10), run(0); with >= without {
		t.Fatalf("miss bubbles (%f) must cost IPC vs none (%f)", with, without)
	}
}

func TestDynamicMissesDetected(t *testing.T) {
	// Two loads to the same cold line in quick succession: the second is a
	// dynamic miss (fill in flight), so a perfect HMP must classify both as
	// misses and nothing as AM-PH.
	us := []uop.UOp{
		{IP: 0x400000, Op: uop.NewOp(uop.Load, 8), Dst: 8, Addr: 0x9000},
		{IP: 0x400004, Op: uop.NewOp(uop.Load, 8), Dst: 9, Addr: 0x9008},
	}
	cfg := DefaultConfig()
	cfg.Scheme = memdep.Opportunistic
	cfg.HMP = &hitmiss.Perfect{}
	st := NewEngine(cfg, newSliceSource(us)).Run(2)
	if st.HM.AMPH != 0 {
		t.Fatalf("oracle HMP suffered %d AM-PH (dynamic miss not anticipated)", st.HM.AMPH)
	}
	if st.HM.Misses() < 2 {
		t.Fatalf("expected both loads to miss (second dynamically), got %d", st.HM.Misses())
	}
}

// ---- engine invariants on real traces ----

func TestInvariantsAcrossSchemes(t *testing.T) {
	p, _ := trace.TraceByName(trace.GroupJava, "jack")
	for _, s := range memdep.Schemes() {
		cfg := DefaultConfig()
		cfg.Scheme = s
		if s.UsesCHT() {
			cfg.CHT = memdep.NewFullCHT(2048, 4, 2, true)
		}
		st := NewEngine(cfg, trace.Replay(p)).Run(40000)
		c := st.Class
		if c.NotConflicting+c.ANCPC+c.ANCPNC+c.ACPC+c.ACPNC != c.Loads {
			t.Fatalf("%v: classification buckets do not sum to loads", s)
		}
		if st.HM.Loads() != st.Loads {
			t.Fatalf("%v: HM tally %d != loads %d", s, st.HM.Loads(), st.Loads)
		}
		if st.L1Hits+st.L1Misses != st.Loads {
			t.Fatalf("%v: cache tallies do not sum to loads", s)
		}
		if s == memdep.Perfect && st.Collisions != 0 {
			t.Fatalf("perfect scheme collided %d times", st.Collisions)
		}
	}
}

func TestNonCHTSchemesNeverPredictColliding(t *testing.T) {
	p, _ := trace.TraceByName(trace.GroupTPC, "tpcc")
	for _, s := range []memdep.Scheme{memdep.Traditional, memdep.Opportunistic, memdep.Perfect} {
		cfg := DefaultConfig()
		cfg.Scheme = s
		st := NewEngine(cfg, trace.Replay(p)).Run(30000)
		if st.Class.ANCPC != 0 || st.Class.ACPC != 0 {
			t.Fatalf("%v: predicted-colliding buckets nonzero without a CHT", s)
		}
	}
}

func TestLoadEventStreamConsistent(t *testing.T) {
	// Fig 9 keeps every event of its collision streams.
	if sz := unsafe.Sizeof(LoadEvent{}); sz != 16 {
		t.Errorf("LoadEvent is %d bytes, want 16", sz)
	}
	p, _ := trace.TraceByName(trace.GroupGames, "quake")
	cfg := DefaultConfig()
	cfg.Scheme = memdep.Traditional
	var events, colliding uint64
	cfg.OnLoadRetire = func(ev LoadEvent) {
		events++
		if ev.Colliding {
			colliding++
			if !ev.Conflicting {
				t.Fatal("colliding implies conflicting")
			}
		}
		if ev.Addr == 0 {
			t.Fatal("load event without address")
		}
	}
	st := NewEngine(cfg, trace.Replay(p)).Run(40000)
	if events != st.Loads {
		t.Fatalf("events %d != retired loads %d", events, st.Loads)
	}
	if colliding != st.Class.AC() {
		t.Fatalf("colliding events %d != AC %d", colliding, st.Class.AC())
	}
}

func TestRetireIsProgramOrder(t *testing.T) {
	// Retire order is program order by construction of the ROB; verify via
	// the event stream being sorted by IP-recurrence... we check sequence
	// monotonicity using the MOB invariant instead: every run must retire
	// exactly the requested uop count without livelock.
	p, _ := trace.TraceByName(trace.GroupSysmark95, "s95c")
	cfg := DefaultConfig()
	cfg.Scheme = memdep.Exclusive
	cfg.CHT = memdep.NewCombinedCHT(1024, 4, 4096, true)
	st := NewEngine(cfg, trace.Replay(p)).Run(50000)
	if st.Uops < 50000 {
		t.Fatalf("retired %d", st.Uops)
	}
}

func TestWindowSweepMonotoneClassification(t *testing.T) {
	// Figure 6's invariant on a single trace: a wider window can only see
	// more in-flight stores, so the not-conflicting share must not grow.
	p, _ := trace.TraceByName(trace.GroupSysmarkNT, "wd")
	prev := -1.0
	for _, w := range []int{8, 32, 128} {
		cfg := DefaultConfig()
		cfg.Window = w
		cfg.WarmupUops = 10000
		st := NewEngine(cfg, trace.Replay(p)).Run(60000)
		nc := st.Class.FracOfLoads(st.Class.NotConflicting)
		if prev >= 0 && nc > prev+0.02 {
			t.Fatalf("no-conflict share grew with window: %.3f -> %.3f", prev, nc)
		}
		prev = nc
	}
}

func TestMOBStaysBounded(t *testing.T) {
	// The MOB must prune retired stores: after a long run its footprint is
	// bounded by the in-flight window, not the trace length.
	p, _ := trace.TraceByName(trace.GroupSysmark95, "s95a")
	cfg := DefaultConfig()
	cfg.Scheme = memdep.Exclusive
	cfg.CHT = memdep.NewFullCHT(2048, 4, 2, true)
	e := NewEngine(cfg, trace.Replay(p))
	e.Run(120000)
	if e.mob.capacity() > cfg.RenamePool {
		t.Fatalf("MOB grew to %d entries (window is %d)", e.mob.capacity(), cfg.RenamePool)
	}
}

func TestPendingCollisionsDrain(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scheme = memdep.Opportunistic
	e := NewEngine(cfg, newSliceSource(collisionTrace(100)))
	e.Run(900)
	if len(e.pendingColl) > 4 {
		t.Fatalf("%d unresolved collisions left parked", len(e.pendingColl))
	}
}
