package ooo

import (
	"fmt"
	"strings"
	"testing"

	"loadsched/internal/hitmiss"
	"loadsched/internal/memdep"
	"loadsched/internal/trace"
	"loadsched/internal/uop"
)

// sliceSource replays a fixed uop sequence, then pads with independent ALU
// uops so the engine can keep retiring.
type sliceSource struct {
	uops []uop.UOp
	pos  int
}

// newSliceSource wraps the sequence in the batch adapter the
// engine consumes.
func newSliceSource(uops []uop.UOp) *trace.Batches {
	return trace.NewBatches(&sliceSource{uops: uops})
}

func (s *sliceSource) Next() uop.UOp {
	pos := s.pos
	s.pos++
	if pos < len(s.uops) {
		return s.uops[pos]
	}
	return uop.UOp{IP: 0x700000 + uint32(pos%8)*4, Op: uop.NewOp(uop.IntALU, 0), Dst: 1}
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Scheme = memdep.Opportunistic
	return cfg
}

// mkStore returns the STA/STD pair of a store.
func mkStore(ip, addr uint32, dataSrc uop.Reg) []uop.UOp {
	return []uop.UOp{
		{IP: ip, Op: uop.NewOp(uop.STA, 8), Addr: addr},
		{IP: ip + 4, Op: uop.NewOp(uop.STD, 0), Src1: dataSrc},
	}
}

func TestEngineRunsSimpleALU(t *testing.T) {
	e := NewEngine(testConfig(), newSliceSource(nil))
	st := e.Run(1000)
	if st.Uops != 1000 {
		t.Fatalf("retired %d uops, want 1000", st.Uops)
	}
	if st.IPC() <= 0.5 || st.IPC() > 6 {
		t.Fatalf("independent ALU IPC = %.2f, expected high throughput", st.IPC())
	}
}

func TestDependencyChainSerializes(t *testing.T) {
	// A chain of dependent ALU ops must run at IPC ≈ 1 regardless of width.
	var us []uop.UOp
	for i := 0; i < 500; i++ {
		us = append(us, uop.UOp{IP: 0x400000 + uint32(i%4)*4, Op: uop.NewOp(uop.IntALU, 0), Dst: 5, Src1: 5})
	}
	e := NewEngine(testConfig(), newSliceSource(us))
	st := e.Run(500)
	if st.IPC() > 1.15 {
		t.Fatalf("dependent chain IPC = %.2f, must be ≈1", st.IPC())
	}
}

func TestLoadHitLatency(t *testing.T) {
	// One load; a dependent chain follows. The dependent chain can only start
	// after the L1 latency, so cycles >= lat.L1 + chain length.
	var us []uop.UOp
	us = append(us, uop.UOp{IP: 0x400000, Op: uop.NewOp(uop.Load, 8), Dst: 9, Addr: 0x1000})
	for i := 0; i < 50; i++ {
		us = append(us, uop.UOp{IP: 0x400100 + uint32(i)*4, Op: uop.NewOp(uop.IntALU, 0), Dst: 9, Src1: 9})
	}
	cfg := testConfig()
	e := NewEngine(cfg, newSliceSource(us))
	st := e.Run(51)
	min := int64(cfg.Lat.L1 + 50)
	if st.Cycles < min {
		t.Fatalf("cycles = %d, want >= %d (L1 latency + chain)", st.Cycles, min)
	}
}

func TestRetirementInOrder(t *testing.T) {
	// A slow Complex op fetched first must not retire after 500 uops have
	// been counted unless it truly finished — indirectly checked by the fact
	// total cycles must exceed its latency even though later uops are ready.
	var us []uop.UOp
	us = append(us, uop.UOp{IP: 0x400000, Op: uop.NewOp(uop.Complex, 0), Dst: 3})
	for i := 0; i < 20; i++ {
		us = append(us, uop.UOp{IP: 0x400100 + uint32(i)*4, Op: uop.NewOp(uop.IntALU, 0), Dst: 4})
	}
	cfg := testConfig()
	e := NewEngine(cfg, newSliceSource(us))
	st := e.Run(21)
	if st.Cycles < int64(cfg.LatComplex) {
		t.Fatalf("cycles = %d < complex latency %d: retired out of order?", st.Cycles, cfg.LatComplex)
	}
}

// collisionTrace builds: slow producer → store address AND data; load to
// the same address ready immediately, with dependents. At the load's
// schedule time the STA is unresolved (ambiguity), so under Opportunistic
// the load advances and collides.
func collisionTrace(n int) []uop.UOp {
	var us []uop.UOp
	addr := uint32(0x2000)
	for i := 0; i < n; i++ {
		// Slow producer feeding the store's address and data registers.
		us = append(us, uop.UOp{IP: 0x400000, Op: uop.NewOp(uop.Complex, 0), Dst: 7})
		us = append(us, uop.UOp{IP: 0x400010, Op: uop.NewOp(uop.Complex, 0), Dst: 7, Src1: 7})
		us = append(us, []uop.UOp{
			{IP: 0x400020, Op: uop.NewOp(uop.STA, 8), Addr: addr, Src1: 7},
			{IP: 0x400024, Op: uop.NewOp(uop.STD, 0), Src1: 7},
		}...)
		// The colliding load: address ready at once (no sources).
		us = append(us, uop.UOp{IP: 0x400040, Op: uop.NewOp(uop.Load, 8), Dst: 8, Addr: addr})
		// Dependents of the load, so collision latency matters.
		for j := 0; j < 4; j++ {
			us = append(us, uop.UOp{IP: 0x400050 + uint32(j)*4, Op: uop.NewOp(uop.IntALU, 0), Dst: 8, Src1: 8})
		}
	}
	return us
}

// stdLateTrace builds stores whose STA resolves immediately but whose STD is
// slow: the Traditional scheme dispatches such loads (all STAs done) and
// still pays the collision on the late STD.
func stdLateTrace(n int) []uop.UOp {
	var us []uop.UOp
	addr := uint32(0x2000)
	for i := 0; i < n; i++ {
		us = append(us, uop.UOp{IP: 0x400000, Op: uop.NewOp(uop.Complex, 0), Dst: 7})
		us = append(us, uop.UOp{IP: 0x400010, Op: uop.NewOp(uop.Complex, 0), Dst: 7, Src1: 7})
		us = append(us, mkStore(0x400020, addr, 7)...)
		us = append(us, uop.UOp{IP: 0x400040, Op: uop.NewOp(uop.Load, 8), Dst: 8, Addr: addr})
		for j := 0; j < 4; j++ {
			us = append(us, uop.UOp{IP: 0x400050 + uint32(j)*4, Op: uop.NewOp(uop.IntALU, 0), Dst: 8, Src1: 8})
		}
	}
	return us
}

func TestOpportunisticCollides(t *testing.T) {
	us := collisionTrace(50)
	cfg := testConfig()
	cfg.Scheme = memdep.Opportunistic
	e := NewEngine(cfg, newSliceSource(us))
	st := e.Run(len(us))
	if st.Collisions < 40 {
		t.Fatalf("collisions = %d, want ≈50 (every load collides)", st.Collisions)
	}
	if st.Class.AC() < 40 {
		t.Fatalf("AC loads = %d, want ≈50", st.Class.AC())
	}
}

func TestPerfectNeverCollides(t *testing.T) {
	us := collisionTrace(50)
	cfg := testConfig()
	cfg.Scheme = memdep.Perfect
	e := NewEngine(cfg, newSliceSource(us))
	st := e.Run(len(us))
	if st.Collisions != 0 {
		t.Fatalf("perfect disambiguation collided %d times", st.Collisions)
	}
}

func TestTraditionalAvoidsSTAButPaysSTD(t *testing.T) {
	// With the STA's address ready early but the STD late, Traditional
	// dispatches after the STA and still pays the collision on the STD.
	us := stdLateTrace(50)
	cfg := testConfig()
	cfg.Scheme = memdep.Traditional
	e := NewEngine(cfg, newSliceSource(us))
	st := e.Run(len(us))
	if st.Collisions < 40 {
		t.Fatalf("traditional should still collide on late STDs, got %d", st.Collisions)
	}
}

func TestInclusiveCHTLearnsToWait(t *testing.T) {
	us := collisionTrace(200)
	cfg := testConfig()
	cfg.Scheme = memdep.Inclusive
	cfg.CHT = memdep.NewFullCHT(2048, 4, 2, false)
	e := NewEngine(cfg, newSliceSource(us))
	st := e.Run(len(us))
	// After warmup the CHT predicts the load colliding, so nearly all later
	// instances wait: collisions far below the 200 of Opportunistic.
	if st.Collisions > 20 {
		t.Fatalf("inclusive+CHT still collided %d times (should learn)", st.Collisions)
	}
	if st.Class.ACPC < 150 {
		t.Fatalf("AC-PC = %d, want most of ~200 predicted", st.Class.ACPC)
	}
}

func TestInclusiveFasterThanTraditionalOnCollisions(t *testing.T) {
	// End-to-end: the predictor-based scheme must beat Opportunistic on a
	// collision-heavy trace (it avoids the 8-cycle penalties).
	mk := func(scheme memdep.Scheme, cht memdep.Predictor) Stats {
		cfg := testConfig()
		cfg.Scheme = scheme
		cfg.CHT = cht
		e := NewEngine(cfg, newSliceSource(collisionTrace(300)))
		return e.Run(2000)
	}
	opp := mk(memdep.Opportunistic, nil)
	inc := mk(memdep.Inclusive, memdep.NewFullCHT(2048, 4, 2, false))
	if inc.IPC() <= opp.IPC() {
		t.Fatalf("inclusive IPC %.3f should beat opportunistic %.3f on colliding trace",
			inc.IPC(), opp.IPC())
	}
}

func TestCollisionPenaltyDelaysData(t *testing.T) {
	// Measure that a collided load's dependent sees the penalty: compare
	// cycle counts with penalty 0 vs 8.
	run := func(pen int) int64 {
		cfg := testConfig()
		cfg.Scheme = memdep.Opportunistic
		cfg.CollisionPenalty = pen
		us := collisionTrace(100)
		e := NewEngine(cfg, newSliceSource(us))
		st := e.Run(len(us))
		return st.Cycles
	}
	if c30, c0 := run(30), run(0); c30 <= c0 {
		t.Fatalf("penalty 30 cycles (%d) should cost more than penalty 0 (%d)", c30, c0)
	}
}

func TestMispredictedBranchStallsFetch(t *testing.T) {
	run := func(mispredict bool) int64 {
		var us []uop.UOp
		for i := 0; i < 200; i++ {
			us = append(us, uop.UOp{IP: 0x400000 + uint32(i%16)*4, Op: uop.NewOp(uop.IntALU, 0), Dst: 1})
			us = append(us, uop.UOp{IP: 0x401000 + uint32(i%16)*4, Op: uop.NewOp(uop.Branch, 0).WithBranch(true, mispredict)})
		}
		e := NewEngine(testConfig(), newSliceSource(us))
		return e.Run(len(us)).Cycles
	}
	if bad, good := run(true), run(false); bad <= good {
		t.Fatalf("mispredicted branches (%d cycles) must cost more than predicted (%d)", bad, good)
	}
}

func TestWindowSizeLimitsILP(t *testing.T) {
	run := func(window int) float64 {
		cfg := testConfig()
		cfg.Window = window
		p := trace.Profile{Name: "w", Seed: 42}
		e := NewEngine(cfg, trace.Replay(p))
		return e.Run(30000).IPC()
	}
	small, big := run(8), run(128)
	if big <= small {
		t.Fatalf("IPC(window=128)=%.3f should exceed IPC(window=8)=%.3f", big, small)
	}
}

func TestClassificationPartitionsLoads(t *testing.T) {
	p := trace.Profile{Name: "c", Seed: 7}
	cfg := testConfig()
	e := NewEngine(cfg, trace.Replay(p))
	st := e.Run(50000)
	c := st.Class
	if c.Loads == 0 {
		t.Fatal("no loads classified")
	}
	if c.NotConflicting+c.Conflicting() != c.Loads {
		t.Fatalf("classification does not partition: %d + %d != %d",
			c.NotConflicting, c.Conflicting(), c.Loads)
	}
	if st.Loads != c.Loads {
		t.Fatalf("classified loads %d != retired loads %d", c.Loads, st.Loads)
	}
}

func TestSchemeOrderingOnRealTrace(t *testing.T) {
	// The fundamental result (Fig 7): Perfect >= Exclusive ≈ Inclusive >=
	// Traditional. Checked loosely on one synthetic trace.
	p, _ := trace.TraceByName(trace.GroupSysmarkNT, "ex")
	run := func(scheme memdep.Scheme) float64 {
		cfg := DefaultConfig()
		cfg.Scheme = scheme
		cfg.WarmupUops = 20000
		if scheme.UsesCHT() {
			cfg.CHT = memdep.NewFullCHT(2048, 4, 2, true)
		}
		e := NewEngine(cfg, trace.Replay(p))
		return e.Run(100000).IPC()
	}
	trad := run(memdep.Traditional)
	incl := run(memdep.Inclusive)
	perf := run(memdep.Perfect)
	if perf < trad {
		t.Fatalf("perfect (%.3f) must not lose to traditional (%.3f)", perf, trad)
	}
	if incl < trad*0.98 {
		t.Fatalf("inclusive (%.3f) should not lose noticeably to traditional (%.3f)", incl, trad)
	}
}

func TestHMPPerfectNotSlower(t *testing.T) {
	p, _ := trace.TraceByName(trace.GroupSpecInt95, "gcc")
	run := func(hmp string) float64 {
		cfg := DefaultConfig()
		cfg.Scheme = memdep.Perfect
		cfg.IntUnits = 4
		cfg.WarmupUops = 20000
		if hmp == "perfect" {
			cfg.HMP = &hitmiss.Perfect{}
		}
		e := NewEngine(cfg, trace.Replay(p))
		return e.Run(100000).IPC()
	}
	base := run("always-hit")
	perf := run("perfect")
	if perf < base*0.995 {
		t.Fatalf("perfect HMP (%.3f) should not lose to always-hit (%.3f)", perf, base)
	}
}

func TestStatsSpeedupAndIPC(t *testing.T) {
	a := Stats{Cycles: 100, Uops: 150}
	b := Stats{Cycles: 100, Uops: 100}
	if a.IPC() != 1.5 {
		t.Fatal("IPC")
	}
	if a.Speedup(b) != 1.5 {
		t.Fatal("Speedup")
	}
	var z Stats
	if z.IPC() != 0 || a.Speedup(z) != 0 {
		t.Fatal("zero-cycle edge cases")
	}
	var sum Stats
	sum.Add(a)
	sum.Add(b)
	if sum.Cycles != 200 || sum.Uops != 250 {
		t.Fatal("Add")
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.FetchWidth = 0 },
		func(c *Config) { c.Window = 0 },
		func(c *Config) { c.Window = c.RenamePool + 1 },
		func(c *Config) { c.MemUnits = 0 },
		func(c *Config) { c.Scheme = memdep.Inclusive; c.CHT = nil },
		func(c *Config) { c.CollisionPenalty = -1 },
		func(c *Config) { c.MissRecoveryBubble = -1 },
		func(c *Config) { c.CollisionRecoveryBubble = -1 },
		func(c *Config) { c.CollisionReplayUops = -1 },
		func(c *Config) { c.MissReplayUops = -1 },
		func(c *Config) { c.BankMispredictPenalty = -1 },
		func(c *Config) { c.BankDualSchedLatency = -1 },
		func(c *Config) { c.Hier.L1D.LineBytes = 48 },
		func(c *Config) { c.Hier.L1I.SizeBytes = 48 }, // non-zero L1I must cohere
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	// The largest pool below the ceiling is accepted, the ceiling itself
	// rejected by name.
	edge := DefaultConfig()
	edge.RenamePool = maxRenamePool - 1
	if err := edge.Validate(); err != nil {
		t.Errorf("RenamePool %d rejected: %v", edge.RenamePool, err)
	}
	edge.RenamePool = maxRenamePool
	if err := edge.Validate(); err == nil || !strings.Contains(err.Error(), fmt.Sprint(maxRenamePool)) {
		t.Errorf("RenamePool %d: err = %v, want one naming the bound", edge.RenamePool, err)
	}
}

func TestRunPanicsOnNegativeCount(t *testing.T) {
	e := NewEngine(testConfig(), newSliceSource(nil))
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "negative uop count") {
			t.Fatalf("panic %q, want the negative uop count named", msg)
		}
		if e.Now() != 0 {
			t.Fatalf("ran %d cycles before rejecting the count", e.Now())
		}
	}()
	e.Run(-1)
}

func TestNewEnginePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cfg := DefaultConfig()
	cfg.Window = 0
	NewEngine(cfg, newSliceSource(nil))
}

func TestWarmupExcludedFromStats(t *testing.T) {
	p := trace.Profile{Name: "warm", Seed: 3}
	cfg := testConfig()
	cfg.WarmupUops = 10000
	e := NewEngine(cfg, trace.Replay(p))
	st := e.Run(20000)
	if st.Uops < 20000 || st.Uops >= 20000+uint64(cfg.RetireWidth) {
		t.Fatalf("measured uops = %d, want 20000 (± retire width, warmup excluded)", st.Uops)
	}
}

func TestDeterministicRuns(t *testing.T) {
	p := trace.Profile{Name: "det", Seed: 9}
	run := func() Stats {
		cfg := DefaultConfig()
		cfg.Scheme = memdep.Inclusive
		cfg.CHT = memdep.NewFullCHT(2048, 4, 2, true)
		e := NewEngine(cfg, trace.Replay(p))
		return e.Run(50000)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("identical configs diverged:\n%+v\n%+v", a, b)
	}
}

func TestLatencyOfPanicsOnLoad(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("latencyOf(Load) must panic: load latency is dynamic")
		}
	}()
	cfg := DefaultConfig()
	cfg.latencyOf(uop.Load)
}

func TestEngineAccessors(t *testing.T) {
	e := NewEngine(testConfig(), newSliceSource(nil))
	if e.Now() != 0 || e.stats.Uops != 0 {
		t.Fatal("fresh engine not at cycle 0")
	}
	e.cycle()
	if e.Now() != 1 {
		t.Fatalf("one cycle advanced to %d", e.Now())
	}
}

func TestSTDPortLimit(t *testing.T) {
	// A burst of stores with ready data: STD throughput is bounded by
	// STDPorts per cycle.
	var us []uop.UOp
	for i := 0; i < 60; i++ {
		us = append(us, mkStore(0x400000+uint32(i)*8, uint32(0x3000+i*64), 0)...)
	}
	cfg := testConfig()
	cfg.STDPorts = 1
	one := NewEngine(cfg, newSliceSource(us)).Run(len(us)).Cycles
	cfg.STDPorts = 4
	four := NewEngine(cfg, newSliceSource(us)).Run(len(us)).Cycles
	if four > one {
		t.Fatalf("more STD ports cannot be slower: %d vs %d cycles", four, one)
	}
}

// TestLivelockPanicNamesPhaseAndHead wedges the machine with an STA whose
// STD never arrives, ahead of a load from the same address, and requires
// the livelock panic to say which phase stalled and what kind of uop sits
// at the ROB head.
func TestLivelockPanicNamesPhaseAndHead(t *testing.T) {
	for _, scheme := range []memdep.Scheme{memdep.Traditional, memdep.Opportunistic} {
		for _, tc := range []struct {
			warmup int
			phase  string
		}{{0, "measure phase"}, {100, "warmup phase"}} {
			t.Run(fmt.Sprintf("%v/%s", scheme, tc.phase), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Scheme = scheme
				cfg.WarmupUops = tc.warmup
				src := newSliceSource([]uop.UOp{
					{IP: 0x400000, Op: uop.NewOp(uop.STA, 8), Addr: 0x9000},
					{IP: 0x400004, Op: uop.NewOp(uop.Load, 8), Addr: 0x9000, Dst: 3},
				})
				var msg string
				func() {
					defer func() { msg = fmt.Sprint(recover()) }()
					NewEngine(cfg, src).Run(1000)
				}()
				if !strings.Contains(msg, "livelock") || !strings.Contains(msg, tc.phase) {
					t.Fatalf("panic %q does not name the livelocked %s", msg, tc.phase)
				}
				if !strings.Contains(msg, "ROB head ld ") {
					t.Fatalf("panic %q does not name the load at the ROB head", msg)
				}
			})
		}
	}
}
