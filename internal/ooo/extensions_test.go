package ooo

import (
	"testing"

	"loadsched/internal/cache"
	"loadsched/internal/hitmiss"
	"loadsched/internal/memdep"
	"loadsched/internal/trace"
)

// ---- store barrier cache [Hess95] ----

func TestBarrierLearnsToHoldLoads(t *testing.T) {
	us := collisionTrace(200)
	run := func(barrier *memdep.StoreBarrier) Stats {
		cfg := DefaultConfig()
		cfg.Scheme = memdep.Opportunistic
		cfg.Barrier = barrier
		return NewEngine(cfg, newSliceSource(us)).Run(len(us))
	}
	without := run(nil)
	with := run(memdep.NewStoreBarrier(1024))
	if with.Collisions >= without.Collisions {
		t.Fatalf("barrier cache should cut collisions: %d vs %d", with.Collisions, without.Collisions)
	}
}

func TestBarrierCoarserThanCHT(t *testing.T) {
	// The paper's point about [Hess95]: the barrier keys on stores, so one
	// bad store delays every following load. On a mixed trace the CHT
	// (load-keyed) should win.
	p, _ := trace.TraceByName(trace.GroupSysmarkNT, "cd")
	run := func(mut func(*Config)) float64 {
		cfg := DefaultConfig()
		cfg.Scheme = memdep.Opportunistic
		cfg.WarmupUops = 20000
		mut(&cfg)
		return NewEngine(cfg, trace.Replay(p)).Run(80000).IPC()
	}
	barrier := run(func(c *Config) { c.Barrier = memdep.NewStoreBarrier(1024) })
	cht := run(func(c *Config) {
		c.Scheme = memdep.Inclusive
		c.CHT = memdep.NewFullCHT(2048, 4, 2, true)
	})
	if cht < barrier*0.98 {
		t.Fatalf("CHT (%.3f) should not lose to the store barrier (%.3f)", cht, barrier)
	}
}

func TestBarrierCountersDecay(t *testing.T) {
	b := memdep.NewStoreBarrier(256)
	ip := uint64(0x400100)
	b.RecordViolation(ip)
	b.RecordViolation(ip)
	if !b.ShouldBarrier(ip) {
		t.Fatal("two violations should set the barrier")
	}
	b.RecordClean(ip)
	b.RecordClean(ip)
	if b.ShouldBarrier(ip) {
		t.Fatal("clean executions should clear the barrier")
	}
	b.RecordViolation(ip)
	b.Reset()
	if b.ShouldBarrier(ip) {
		t.Fatal("Reset must clear counters")
	}
}

func TestBarrierBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	memdep.NewStoreBarrier(100)
}

// ---- dual-scheduled banked pipe ----

func TestDualScheduledNoConflictsButSlower(t *testing.T) {
	us := bankHeavyTrace(400)
	run := func(policy BankPolicy) Stats {
		cfg := bankConfig(policy, nil)
		return NewEngine(cfg, newSliceSource(bankHeavyTrace(400))).Run(len(us))
	}
	dual := run(BankDualScheduled)
	ideal := run(BankOff)
	if dual.BankConflicts != 0 {
		t.Fatalf("dual scheduling eliminates conflicts, got %d", dual.BankConflicts)
	}
	if dual.IPC() > ideal.IPC() {
		t.Fatalf("dual-scheduled (%.3f) cannot beat the ideal pipe (%.3f)", dual.IPC(), ideal.IPC())
	}
	// Its extra scheduler stage must cost something on load-latency-bound
	// code.
	if dual.Cycles <= ideal.Cycles {
		t.Fatalf("dual scheduling latency did not show: %d vs %d cycles", dual.Cycles, ideal.Cycles)
	}
}

// ---- multi-level hit-miss prediction ----

func TestLevelPredictorBeatsBinaryOnMemoryMisses(t *testing.T) {
	// TPC has a large irregular working set with many full misses: a level
	// predictor schedules those for the memory latency, the binary one
	// replays them at the L2 latency.
	p, _ := trace.TraceByName(trace.GroupTPC, "tpcc")
	run := func(h hitmiss.Predictor) Stats {
		cfg := DefaultConfig()
		cfg.Scheme = memdep.Perfect
		cfg.HMP = h
		cfg.WarmupUops = 20000
		return NewEngine(cfg, trace.Replay(p)).Run(80000)
	}
	oracleBinary := run(&hitmiss.Perfect{})
	oracleLevel := run(&hitmiss.PerfectLevel{})
	if oracleLevel.IPC() < oracleBinary.IPC()*0.999 {
		t.Fatalf("level oracle (%.3f) should not lose to binary oracle (%.3f)",
			oracleLevel.IPC(), oracleBinary.IPC())
	}
}

func TestTwoStageInEngine(t *testing.T) {
	p, _ := trace.TraceByName(trace.GroupGames, "pod")
	cfg := DefaultConfig()
	cfg.Scheme = memdep.Perfect
	cfg.HMP = hitmiss.NewTwoStage()
	cfg.WarmupUops = 15000
	st := NewEngine(cfg, trace.Replay(p)).Run(60000)
	if st.HM.Loads() != st.Loads {
		t.Fatal("HM accounting broken with level predictor")
	}
	if st.HM.AMPM == 0 {
		t.Fatal("two-stage predictor caught no misses on a miss-heavy trace")
	}
}

func TestPerfectLevelNoReplays(t *testing.T) {
	p, _ := trace.TraceByName(trace.GroupTPC, "tpcd")
	cfg := DefaultConfig()
	cfg.Scheme = memdep.Perfect
	cfg.HMP = &hitmiss.PerfectLevel{}
	cfg.WarmupUops = 10000
	st := NewEngine(cfg, trace.Replay(p)).Run(50000)
	if st.HM.AMPH != 0 {
		t.Fatalf("level oracle suffered %d replays", st.HM.AMPH)
	}
}

// ---- trace-file replay through the engine ----

func TestEngineRunsFromRecordedTrace(t *testing.T) {
	p, _ := trace.TraceByName(trace.GroupSpecInt95, "perl")
	dir := t.TempDir()
	path := dir + "/t.lsut"
	if err := trace.WriteTraceFile(path, p, 60000); err != nil {
		t.Fatal(err)
	}
	rd, err := trace.ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Scheme = memdep.Exclusive
	cfg.CHT = memdep.NewFullCHT(2048, 4, 2, true)
	cfg.WarmupUops = 10000

	live := NewEngine(cfg, trace.Replay(p)).Run(40000)
	replay := NewEngine(cfg2(cfg), trace.NewBatches(rd)).Run(40000)
	if live != replay {
		t.Fatalf("recorded replay diverged from live generation:\n%+v\n%+v", live, replay)
	}
}

// cfg2 deep-copies the parts of a config that carry predictor state.
func cfg2(c Config) Config {
	c.CHT = memdep.NewFullCHT(2048, 4, 2, true)
	return c
}

var _ = cache.DefaultBanking

// ---- distance-based value forwarding (§2.1 extension) ----

func TestDistanceForwardingSpeedsUpPairs(t *testing.T) {
	// The colliding parameter-pair trace: with forwarding, the load takes
	// the store's value from the store queue instead of re-reading the
	// cache, shaving latency on every predicted pair.
	run := func(forward bool) Stats {
		cfg := DefaultConfig()
		cfg.Scheme = memdep.Exclusive
		cfg.CHT = memdep.NewFullCHT(2048, 4, 2, true)
		cfg.DistanceForwarding = forward
		us := collisionTrace(300)
		return NewEngine(cfg, newSliceSource(us)).Run(2500)
	}
	plain := run(false)
	fwd := run(true)
	if fwd.Forwards == 0 {
		t.Fatal("forwarding never triggered on a pair-heavy trace")
	}
	if fwd.IPC() < plain.IPC() {
		t.Fatalf("forwarding (%.3f) should not lose to plain exclusive (%.3f)",
			fwd.IPC(), plain.IPC())
	}
}

func TestDistanceForwardingOffByDefault(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scheme = memdep.Exclusive
	cfg.CHT = memdep.NewFullCHT(2048, 4, 2, true)
	st := NewEngine(cfg, newSliceSource(collisionTrace(100))).Run(800)
	if st.Forwards != 0 {
		t.Fatalf("forwarding counted %d events while disabled", st.Forwards)
	}
}

func TestDistanceForwardingOnRealTrace(t *testing.T) {
	p, _ := trace.TraceByName(trace.GroupJava, "javac")
	run := func(forward bool) Stats {
		cfg := DefaultConfig()
		cfg.Scheme = memdep.Exclusive
		cfg.CHT = memdep.NewFullCHT(2048, 4, 2, true)
		cfg.DistanceForwarding = forward
		cfg.WarmupUops = 15000
		return NewEngine(cfg, trace.Replay(p)).Run(60000)
	}
	fwd := run(true)
	plain := run(false)
	if fwd.Forwards == 0 {
		t.Fatal("no forwards on a call-heavy Java trace")
	}
	if fwd.IPC() < plain.IPC()*0.99 {
		t.Fatalf("forwarding hurt IPC: %.3f vs %.3f", fwd.IPC(), plain.IPC())
	}
}
