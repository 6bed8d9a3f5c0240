package ooo

import (
	"testing"

	"loadsched/internal/hitmiss"
	"loadsched/internal/memdep"
	"loadsched/internal/trace"
)

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

// ---- trace-file replay through the engine ----

func TestEngineRunsFromRecordedTrace(t *testing.T) {
	p, _ := trace.TraceByName(trace.GroupSpecInt95, "perl")
	dir := t.TempDir()
	path := dir + "/t.lsut"
	if err := trace.WriteTraceFile(path, p, 60000); err != nil {
		t.Fatal(err)
	}
	rd, err := trace.StreamTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	cfg := DefaultConfig()
	cfg.Scheme = memdep.Exclusive
	cfg.CHT = memdep.NewFullCHT(2048, 4, 2, true)
	cfg.WarmupUops = 10000

	live := NewEngine(cfg, trace.Replay(p)).Run(40000)
	replay := NewEngine(cfg2(cfg), rd).Run(40000)
	if live != replay {
		t.Fatalf("recorded replay diverged from live generation:\n%+v\n%+v", live, replay)
	}
}

// cfg2 deep-copies the parts of a config that carry predictor state.
func cfg2(c Config) Config {
	c.CHT = memdep.NewFullCHT(2048, 4, 2, true)
	return c
}
