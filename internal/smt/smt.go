// Package smt models the multithreading use of hit-miss prediction that
// §2.2 proposes: "the prediction may be used to govern a thread switch if a
// load is predicted to miss the L2 cache, and suffer the large latency of
// accessing main memory."
//
// The model is coarse-grained (switch-on-event) multithreading: one thread
// owns the pipeline at a time; when its load goes to main memory the
// machine switches to another ready thread, hiding the memory latency. The
// quality of the switch decision is exactly what the HMP buys:
//
//   - With a level predictor, the miss is known at dispatch and the switch
//     happens immediately.
//   - Without one (today's always-hit scheduling), the miss is discovered
//     only when the hit indication arrives, so the pipeline has already
//     wasted the detection window speculating down the stalled thread.
//
// Each thread is a full ooo.Engine over its own trace; the coordinator
// interleaves their cycles and charges a fixed switch penalty. Throughput
// is aggregate retired uops per global cycle.
package smt

import (
	"fmt"

	"loadsched/internal/hitmiss"
	"loadsched/internal/memdep"
	"loadsched/internal/ooo"
	"loadsched/internal/trace"
)

// Config parameterizes the multithreaded machine.
type Config struct {
	// Threads are the per-thread workloads.
	Threads []trace.Profile
	// SwitchPenalty is the pipeline bubble charged on every thread switch.
	SwitchPenalty int
	// UseLevelHMP gates switches on a two-stage level predictor; false
	// models the always-hit machine that discovers misses late.
	UseLevelHMP bool
	// PerfectHMP uses the oracle level predictor instead of the two-stage
	// one (upper bound).
	PerfectHMP bool
	// Engine is the per-thread machine configuration template; nil takes the
	// §3.1 defaults. The struct is copied per thread, but any predictor
	// *instances* set in it (CHT, HMP, Barrier, BankPredictor) would be
	// shared across threads — leave them nil and let the per-thread fields
	// below choose predictors, or accept the aliasing deliberately.
	Engine *ooo.Config
}

// Result is the multithreaded run's outcome.
type Result struct {
	// Cycles is the global cycle count.
	Cycles int64
	// Uops is the aggregate retired uop count.
	Uops uint64
	// Switches counts thread switches taken.
	Switches uint64
	// SwitchesPredicted counts switches triggered at dispatch by the
	// predictor (vs. late, at miss detection).
	SwitchesPredicted uint64
}

// IPC returns aggregate uops per global cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Uops) / float64(r.Cycles)
}

type thread struct {
	engine *ooo.Engine
	// blockedFor counts remaining global cycles of the thread's memory
	// stall (0 = runnable).
	blockedFor int64
	// pendingBlock is set by the engine callback during a step.
	pendingBlock int64
	predicted    bool
}

// Machine is the coarse-grained multithreaded coordinator.
type Machine struct {
	cfg     Config
	threads []*thread
	active  int
}

// New builds the machine; it panics on an empty thread set (static
// configuration, as elsewhere in this codebase).
func New(cfg Config) *Machine {
	if len(cfg.Threads) == 0 {
		panic("smt: no threads")
	}
	if cfg.SwitchPenalty == 0 {
		cfg.SwitchPenalty = 4
	}
	m := &Machine{cfg: cfg}
	for _, p := range cfg.Threads {
		th := &thread{}
		ecfg := ooo.DefaultConfig()
		if cfg.Engine != nil {
			ecfg = *cfg.Engine
		}
		if ecfg.Scheme.UsesCHT() && ecfg.CHT == nil {
			ecfg.CHT = memdep.NewFullCHT(2048, 4, 2, true)
		}
		switch {
		case cfg.PerfectHMP:
			ecfg.HMP = &hitmiss.PerfectLevel{}
		case cfg.UseLevelHMP:
			ecfg.HMP = hitmiss.NewTwoStage()
		}
		ecfg.OnMemoryLoad = func(remaining int64, predicted bool) {
			// Gate: without an HMP only detected (late) misses can trigger a
			// switch; with one, predicted misses switch immediately.
			if th.pendingBlock == 0 && remaining > th.pendingBlock {
				th.pendingBlock = remaining
				th.predicted = predicted
			}
		}
		th.engine = ooo.NewEngine(ecfg, trace.Replay(p))
		m.threads = append(m.threads, th)
	}
	return m
}

// Run executes until totalUops retire across all threads.
func (m *Machine) Run(totalUops int) Result {
	var res Result
	target := uint64(totalUops)
	guard := int64(totalUops)*1000 + 1_000_000
	for res.Uops < target {
		res.Cycles++
		if res.Cycles > guard {
			panic(fmt.Sprintf("smt: livelock at %d uops", res.Uops))
		}
		// Age the blocked threads.
		for _, th := range m.threads {
			if th.blockedFor > 0 {
				th.blockedFor--
			}
		}
		act := m.threads[m.active]
		if act.blockedFor > 0 {
			// The active thread is stalled; switching pays off only when the
			// remaining stall exceeds the switch bubble.
			if act.blockedFor > int64(m.cfg.SwitchPenalty) {
				if next := m.nextRunnable(); next >= 0 && next != m.active {
					m.switchTo(next, &res)
				}
			}
			continue // idle cycle (switch bubble or no runnable thread)
		}
		before := act.engine.Retired()
		act.engine.StepCycle()
		res.Uops += act.engine.Retired() - before
		if act.pendingBlock > 0 {
			// A memory load was signalled this cycle: block the thread and
			// switch away if the stall outlasts the bubble and anyone else
			// can run.
			act.blockedFor = act.pendingBlock
			act.pendingBlock = 0
			if act.blockedFor > int64(m.cfg.SwitchPenalty) {
				if next := m.nextRunnable(); next >= 0 && next != m.active {
					m.switchTo(next, &res)
					if act.predicted {
						res.SwitchesPredicted++
					}
				}
			}
		}
	}
	return res
}

// nextRunnable returns a runnable thread index (round-robin from the active
// one), or -1.
func (m *Machine) nextRunnable() int {
	n := len(m.threads)
	for i := 1; i <= n; i++ {
		c := (m.active + i) % n
		if m.threads[c].blockedFor == 0 {
			return c
		}
	}
	return -1
}

// switchTo charges the switch penalty by blocking the incoming thread for
// the bubble, then activates it.
func (m *Machine) switchTo(next int, res *Result) {
	res.Switches++
	m.threads[next].blockedFor += int64(m.cfg.SwitchPenalty)
	m.active = next
}
