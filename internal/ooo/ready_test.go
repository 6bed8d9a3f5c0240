package ooo

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"loadsched/internal/bankpred"
	"loadsched/internal/cache"
	"loadsched/internal/memdep"
	"loadsched/internal/trace"
)

// Edge-case coverage for the event-driven scheduling core (ready.go): the
// wake heap under duplicate wake times, idle fast-forward over spans bounded
// by several coincident events, and engine reuse (Reset) with schemes that
// hold ready loads in the window.

// TestWakeHeapDuplicateWakeTimes pushes a shuffled stream with heavy time
// duplication and checks the heap drains in non-decreasing time order with
// no event lost or invented. Pop order among equal times is documented as
// arbitrary; insertReady is what re-establishes age order afterwards.
func TestWakeHeapDuplicateWakeTimes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var events []wakeEvent
	for i := int32(0); i < 200; i++ {
		events = append(events, wakeEvent{at: int64(rng.Intn(8)), idx: i})
	}
	var h wakeHeap
	for _, ev := range events {
		h.push(ev)
	}

	var drained []wakeEvent
	for len(h) > 0 {
		drained = append(drained, h.pop())
	}
	if len(drained) != len(events) {
		t.Fatalf("drained %d events, pushed %d", len(drained), len(events))
	}
	for i := 1; i < len(drained); i++ {
		if drained[i].at < drained[i-1].at {
			t.Fatalf("pop order not time-sorted: %d after %d at position %d",
				drained[i].at, drained[i-1].at, i)
		}
	}
	// Same multiset: every pushed (at, idx) pair comes back exactly once.
	key := func(ev wakeEvent) string { return fmt.Sprintf("%d/%d", ev.at, ev.idx) }
	want := make([]string, len(events))
	got := make([]string, len(drained))
	for i := range events {
		want[i], got[i] = key(events[i]), key(drained[i])
	}
	sort.Strings(want)
	sort.Strings(got)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("event multiset changed: got %s, want %s", got[i], want[i])
		}
	}
}

// TestInsertReadyRestoresAgeOrder drains duplicate-time wake events through
// insertReady on a constructed engine and checks the ready list comes out in
// age (rename) order — the invariant the dispatch walk depends on.
func TestInsertReadyRestoresAgeOrder(t *testing.T) {
	cfg := DefaultConfig()
	e := NewEngine(cfg, trace.Replay(trace.Profile{Name: "unused", Seed: 1}))
	// Give a handful of rob entries distinct ages, then wake them all for the
	// same cycle in a scrambled push order.
	idxs := []int32{3, 0, 7, 5, 1}
	for i, idx := range idxs {
		e.rob.age[idx] = int64(10 + i) // age follows idxs order
	}
	e.now = 0
	for _, idx := range []int32{7, 3, 1, 0, 5} { // scrambled
		e.wakeQ.push(wakeEvent{at: 1, idx: idx})
	}
	e.now = 1
	e.drainWakeQ()
	if len(e.readyList) != len(idxs) {
		t.Fatalf("readyList has %d entries, want %d", len(e.readyList), len(idxs))
	}
	for i := 1; i < len(e.readyList); i++ {
		if e.rob.age[e.readyList[i]] <= e.rob.age[e.readyList[i-1]] {
			t.Fatalf("readyList not age-ordered: ages %d then %d",
				e.rob.age[e.readyList[i-1]], e.rob.age[e.readyList[i]])
		}
	}
}

// coincidentProfile is tuned so many loads issue together and complete
// together (shared latencies), making idle spans end on several coincident
// events — completion, wakeup and miss detection landing on the same cycle.
var coincidentProfile = trace.Profile{
	Name:             "coincident",
	Seed:             0xc01dc1de,
	SlowStoreFrac:    0.4,
	SlowAddrFrac:     0.5,
	LoadFrac:         0.35,
	StoreFrac:        0.12,
	ChaseFrac:        0.5, // heavy pointer chasing: long miss waits to skip
	ChaseWorkingSet:  64 << 10,
	StreamWorkingSet: 32 << 10,
	BranchTakenBias:  0.6,
}

// TestFastForwardCoincidentEventsDiff pins idle fast-forward against the
// naive per-cycle walk on machines that generate long idle spans bounded by
// coincident events: a narrow machine with default (always-hit) prediction
// mispredicts every miss, so deferred miss detections, recovery-bubble
// expiries and data wakeups all land on shared cycles.
func TestFastForwardCoincidentEventsDiff(t *testing.T) {
	builds := map[string]func() Config{
		"narrow-mispredicting": func() Config {
			cfg := DefaultConfig()
			cfg.FetchWidth, cfg.RetireWidth = 1, 1
			cfg.Window, cfg.RenamePool = 8, 8
			cfg.IntUnits, cfg.MemUnits, cfg.STDPorts = 1, 1, 1
			cfg.MissRecoveryBubble = 6
			cfg.MissReplayPenalty = 8
			return cfg
		},
		"traditional-held-loads": func() Config {
			cfg := DefaultConfig()
			cfg.Scheme = memdep.Traditional
			cfg.FetchWidth = 2
			cfg.Window, cfg.RenamePool = 16, 24
			return cfg
		},
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			const warmup, uops = 500, 3000
			run := func(naive bool) Stats {
				cfg := build()
				cfg.WarmupUops = warmup
				e := NewEngine(cfg, trace.Replay(coincidentProfile))
				e.naive = naive
				return e.Run(uops)
			}
			event, naive := run(false), run(true)
			if event != naive {
				t.Errorf("fast-forward diverged from naive walk\nevent: %+v\nnaive: %+v", event, naive)
			}
			if event.CPI.Total() != event.Cycles {
				t.Errorf("CPI stack sums to %d, want Cycles=%d", event.CPI.Total(), event.Cycles)
			}
		})
	}
}

// TestEngineResetReuseDiff is the reuse property behind the runner's engine
// pool: running a job on a Reset engine that already simulated a different
// workload must produce bit-identical Stats to a freshly built engine. The
// configurations deliberately hold ready loads in the window (Traditional
// ordering, bank-predictive steering), so the test covers held loads
// re-entering the ready set on the reused engine.
func TestEngineResetReuseDiff(t *testing.T) {
	builds := map[string]func() Config{
		"traditional": func() Config {
			cfg := DefaultConfig()
			cfg.Scheme = memdep.Traditional
			return cfg
		},
		"cht-inclusive": func() Config {
			cfg := DefaultConfig()
			cfg.Scheme = memdep.Inclusive
			cfg.CHT = memdep.NewFullCHT(256, 2, 2, true)
			return cfg
		},
		"bank-predictive": func() Config {
			cfg := DefaultConfig()
			cfg.Banking = cache.DefaultBanking()
			cfg.BankPolicy = BankPredictive
			cfg.BankPredictor = bankpred.NewPredictorC()
			return cfg
		},
	}
	warmupOther := trace.Profile{
		Name: "warm-other", Seed: 7, SlowStoreFrac: 0.5, SlowAddrFrac: 0.3,
		LoadFrac: 0.3, StoreFrac: 0.1, ChaseFrac: 0.2,
		ChaseWorkingSet: 32 << 10, StreamWorkingSet: 32 << 10, BranchTakenBias: 0.5,
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			const warmup, uops = 500, 3000
			mk := func() Config {
				cfg := build()
				cfg.WarmupUops = warmup
				return cfg
			}
			fresh := NewEngine(mk(), trace.Replay(coincidentProfile)).Run(uops)

			// Dirty an engine on a different workload, then Reset and rerun.
			e := NewEngine(mk(), trace.Replay(warmupOther))
			e.Run(uops)
			if !e.Reset(trace.Replay(coincidentProfile)) {
				t.Fatal("Reset refused for the built-in policy")
			}
			reused := e.Run(uops)
			if reused != fresh {
				t.Errorf("reused engine diverged from fresh engine\nfresh:  %+v\nreused: %+v", fresh, reused)
			}

			// A second reset must be just as clean as the first.
			if !e.Reset(trace.Replay(coincidentProfile)) {
				t.Fatal("second Reset refused")
			}
			if again := e.Run(uops); again != fresh {
				t.Errorf("second reuse diverged from fresh engine\nfresh: %+v\nagain: %+v", fresh, again)
			}
		})
	}
}
