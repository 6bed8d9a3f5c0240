package ooo

import (
	"fmt"

	"loadsched/internal/cache"
	"loadsched/internal/memdep"
	"loadsched/internal/uop"
)

// The engine is decomposed into one file per pipeline stage, all operating
// on the shared machine state below:
//
//	frontend.go  fetch + rename (branch stall, side-car producers, MOB entry)
//	schedule.go  dispatch walk, port allocation, replay debt
//	ready.go     event-driven core: wakeup links, ready set, fast-forward
//	memory.go    MOB queries, load classification, collision resolution
//	execute.go   load execution: cache access, latency speculation, penalties
//	retire.go    in-order retirement, stat finalization, predictor training
//	policy.go    the SpeculationPolicy seam the stages consult
//	cpi.go       per-cycle stall attribution (the CPI stack)
//
// Hot state is laid out structure-of-arrays: the ROB is robState — parallel
// slices indexed by rename-pool slot, with per-slot booleans packed into one
// flag word and wakeup lists kept as intrusive index links instead of
// per-entry slices — and the MOB is mobState, a ring of parallel arrays.
// Stage code addresses everything by slot index, so the working set per
// field is one dense array and slot reuse never allocates.
//
// Every speculation decision flows through the SpeculationPolicy seam, so
// stage code contains machine mechanics only.

// Source supplies the dynamic uop stream with its static dependence
// side-car (see internal/trace deplink.go). NextBatchRef exposes the
// source's next decoded run as direct slices — uops and side-car entries in
// lockstep, valid until the next call on the source — plus the store base
// the run's Dep.LastStore deltas are relative to: the number of STAs
// before the run. Handing out references instead of filling caller buffers
// keeps the fetch path copy-free; the engine treats the slices as read-only
// (shared recording chunks back them for every sweep engine at once).
// Sources are endless, and the side-car's position deltas and store base
// share an origin with the engine's rename and store counts because the
// engine observes the stream from its beginning. trace.Replay cursors
// and trace.StreamReader implement Source directly; trace.NewBatches
// adapts any scalar trace.Source.
type Source interface {
	NextBatchRef() (us []uop.UOp, deps []uop.Dep, storeBase int64)
}

// LoadEvent describes one retired load for statistical consumers.
type LoadEvent struct {
	// IP and Addr identify the access.
	IP, Addr uint64
	// Colliding and Distance are the load's actual collision behavior.
	Colliding bool
	Distance  int
	// Hit reports an L1 hit.
	Hit bool
	// Conflicting reports an older incomplete store at schedule time.
	Conflicting bool
}

// Per-slot ROB flag bits (robState.flags).
const (
	fValid uint16 = 1 << iota
	// fInRS marks residence in the scheduling window (entered at rename,
	// left at dispatch).
	fInRS
	fDispatched
	fDone
	// fBlockingBranch marks the mispredicted branch the front end stalls on.
	fBlockingBranch
	// Load-only bits.
	fClassified
	fConflicting
	fColliding
	fPredHit
	fActualHit
	fCollided // paid the collision penalty
)

// robState is the instruction window in structure-of-arrays layout: one
// parallel slice per field, indexed by rename-pool slot. Compared to a slice
// of per-entry structs, a stage touching one field (the dispatch walk reads
// ages, retire reads done cycles) streams through one dense array instead of
// striding across fat records, and clearing a slot at rename writes a few
// words instead of copying a struct.
type robState struct {
	u     []uop.UOp
	flags []uint16
	// kind mirrors u[i].Kind as a dense array, so the dispatch walk's
	// switch reads a small column instead of striding across 16-byte uop
	// records.
	kind []uint8
	// age is the slot's rename order, stamped from Engine.renameAge: it
	// orders the ready set and guards producer links (a slot reused by a
	// younger uop has a different age).
	age []int64

	doneCycle []int64

	// Register dependencies: slot index + age guard of each source producer
	// (-1 when the value is already architectural).
	src1Prod, src2Prod []int32
	src1Age, src2Age   []int64

	// Event-driven scheduling state (see ready.go), as intrusive index
	// links: waitHead[p] heads producer p's wakeup list (-1 = empty); list
	// nodes are identified as idx<<1|src — each slot owns exactly two
	// preallocated nodes, one per source operand — and chained through
	// waitNext. A node is live exactly while its slot waits on that source's
	// producer, so there is no separate freelist to maintain. nwaiting
	// counts a slot's producers whose completion time is still unknown;
	// readyAt accumulates the latest known producer completion and is final
	// once nwaiting reaches 0.
	waitHead []int32
	waitNext []int32
	nwaiting []int8
	readyAt  []int64

	// lastStore is the id of the youngest store renamed up to and
	// including this slot's uop, written at rename for loads and store
	// halves: for a load, the youngest store older than it; for an STA or
	// STD, its own store. A store's id is its rank among the stream's STAs.
	lastStore []int64

	// Load-only state.
	// lv caches the slot's policy-visible LoadView, built once when the
	// load is first offered (its fields are all fixed at rename): a load
	// held for many cycles is re-offered with a pointer into this array
	// instead of re-gathering the view from the parallel slices each
	// cycle.
	lv        []LoadView
	collDist  []int32
	pred      []memdep.Prediction
	level     []cache.Level
	waitStore []int64 // store id whose STD must complete to resolve this load
	cacheDone []int64 // completion time before collision resolution
	bankDelay []int64 // stall/flush cycles from banked-cache conflicts
	dispCycle []int64 // cycle the load dispatched (for replay accounting)
}

// newROB allocates every parallel slice at the rename-pool size.
func newROB(pool int) robState {
	return robState{
		u:         make([]uop.UOp, pool),
		flags:     make([]uint16, pool),
		kind:      make([]uint8, pool),
		age:       make([]int64, pool),
		doneCycle: make([]int64, pool),
		src1Prod:  make([]int32, pool),
		src2Prod:  make([]int32, pool),
		src1Age:   make([]int64, pool),
		src2Age:   make([]int64, pool),
		waitHead:  make([]int32, pool),
		waitNext:  make([]int32, 2*pool),
		nwaiting:  make([]int8, pool),
		readyAt:   make([]int64, pool),
		lastStore: make([]int64, pool),
		lv:        make([]LoadView, pool),
		collDist:  make([]int32, pool),
		pred:      make([]memdep.Prediction, pool),
		level:     make([]cache.Level, pool),
		waitStore: make([]int64, pool),
		cacheDone: make([]int64, pool),
		bankDelay: make([]int64, pool),
		dispCycle: make([]int64, pool),
	}
}

// size returns the rename-pool capacity.
func (r *robState) size() int { return len(r.flags) }

// clearSlot claims one slot for freshly renamed u, the age-th uop renamed:
// valid, in the scheduling window. Every other per-slot field is left stale
// on purpose — each is proven write-before-read along its lifecycle: rename
// writes both producer pairs explicitly; linkDeps writes readyAt and only
// increments nwaiting (0 at slot entry: a slot is reused only after it
// dispatched, which requires nwaiting to have drained, and reset zeroes it
// between runs); waitHead is -1 whenever a slot frees (wakeDependents
// detaches the chain at completion, reset re-arms it); the load fields
// (lastStore/pred at rename, collDist and the cached lv at
// classify, level/cacheDone/dispCycle/bankDelay at dispatch/execute,
// waitStore on the collision path) are each written before their first
// read, and read only for loads; doneCycle is read only under fDone, which complete() sets
// together with it. Keeping the clear to these four writes is what makes
// rename cheap enough to be dominated by producer resolution.
func (r *robState) clearSlot(idx int, u uop.UOp, age int64) {
	r.u[idx] = u
	r.flags[idx] = fValid | fInRS
	r.kind[idx] = uint8(u.Kind)
	r.age[idx] = age
}

// reset rewinds every slot (Reset/engine-pool path); allocations are kept.
// nwaiting must be zeroed here: a run can end with uops still in flight
// whose wakeup counts never drained, and clearSlot relies on reused slots
// starting at 0.
func (r *robState) reset() {
	for i := range r.flags {
		r.flags[i] = 0
		r.waitHead[i] = -1
		r.nwaiting[i] = 0
	}
}

// loadView projects the policy-visible slice of a load slot.
func (e *Engine) loadView(idx int32) LoadView {
	u := &e.rob.u[idx]
	return LoadView{
		IP: uint64(u.IP), Addr: uint64(u.Addr), Size: int(u.Size),
		OlderStores: e.rob.lastStore[idx], Pred: e.rob.pred[idx],
	}
}

// Per-store MOB flag bits (mobState.flags). A store's whole status is one
// byte; its record is born when its STA renames.
const (
	// Execution status of each half.
	mStaExec uint8 = 1 << iota
	mStdExec
	// Retirement status of each half (both retired → the record can be
	// pruned once it reaches the MOB head).
	mStaRetired
	mStdRetired
)

// mobState is the memory-order buffer as a ring of parallel arrays: the
// record for store id lives at ring offset id-first, and length records
// are live starting at ring position start. An STA's rename appends its
// store's record, so ids are the stores' ranks among the stream's STAs.
// Store ids are implicit in the ring position (first + offset), and each
// record's status is a single flag byte, so the classification walks in
// memory.go stream a dense byte array.
// The ring is sized once from Config.RenamePool (live stores are bounded by
// the instruction window) and doubles only in the degenerate case that
// bound is exceeded, so steady-state MOB traffic allocates nothing.
type mobState struct {
	addr       []uint64
	size       []int32
	flags      []uint8
	stdExecCyc []int64

	start, length int
	first         int64
}

// newMOB allocates the ring's parallel arrays.
func newMOB(capacity int) mobState {
	return mobState{
		addr:       make([]uint64, capacity),
		size:       make([]int32, capacity),
		flags:      make([]uint8, capacity),
		stdExecCyc: make([]int64, capacity),
	}
}

// capacity returns the ring size.
func (m *mobState) capacity() int { return len(m.flags) }

// Engine is the out-of-order machine.
type Engine struct {
	cfg Config
	// src supplies the uop stream. Rename reads fetchRefU/fetchRefD —
	// zero-copy views into the source's decoded chunk, uops and side-car
	// entries in lockstep — from fetchPos on, and fetchStoreBase anchors
	// the current run's Dep.LastStore deltas.
	src            Source
	fetchRefU      []uop.UOp
	fetchRefD      []uop.Dep
	fetchStoreBase int64
	fetchPos       int
	hier           *cache.Hierarchy
	missq          *cache.MissQueue
	// policy is the speculation seam every prediction decision goes
	// through; oracle caches policy.Oracle(). defPol is non-nil when the
	// seam is the built-in adapter — the per-load call sites dispatch to
	// it directly, skipping the interface table (custom policies take the
	// interface path unchanged).
	policy SpeculationPolicy
	defPol *defaultPolicy
	oracle bool

	rob   robState
	head  int // slot of the oldest entry
	count int
	// rsCount tracks scheduling-window occupancy incrementally.
	rsCount int

	// Event-driven scheduling core (ready.go): readyList holds the slots of
	// window entries whose operands are ready, in age order; wakeQ holds
	// entries whose operands complete at a known future cycle. renameAge
	// counts the uops renamed since the run began, so it is the stream
	// position of the next uop and the stamp behind rob.age. naive selects
	// the retained full-walk reference scheduler; only in-package tests set
	// it, after NewEngine.
	readyList []int32
	wakeQ     wakeHeap
	renameAge int64
	naive     bool

	now int64

	mob mobState

	// Completed-store watermarks (memory.go): every in-window store with id
	// below the watermark is known to have dispatched its STA (staDoneTo)
	// or both halves (allDoneTo). They advance lazily at query time and
	// never move back, so the per-cycle ordering checks and load
	// classification walk only the suffix of the MOB that can still change
	// instead of rescanning from the oldest store.
	staDoneTo, allDoneTo int64

	// pendingColl lists slots of dispatched loads awaiting a colliding
	// STD's completion time.
	pendingColl []int32

	// Front-end stall state.
	awaitingBranch bool
	resumeAt       int64

	// Per-cycle port usage.
	intUsed, memUsed, fpUsed, cplxUsed, stdUsed int

	// Replay debt: execution-port slots owed to re-executed loads and their
	// dependents (collision and miss replays). Drained before real dispatch
	// each cycle, modelling the bandwidth the recovery consumes.
	replayMemDebt, replayIntDebt int

	// recoveryStallUntil blocks dispatch while a memory-ordering violation
	// is being repaired; recoveryCause remembers which repair set it, for
	// the CPI stack.
	recoveryStallUntil int64
	recoveryCause      stallCause
	// missDetections are the future cycles at which AM-PH misses are
	// discovered (dispatch + hit-indication); each triggers a
	// MissRecoveryBubble when it comes due.
	missDetections []int64

	// Per-cycle CPI-stack evidence (see cpi.go).
	cycleRetired       int
	cycleRenameStalled bool
	schedHold          stallCause

	stats Stats
}

// NewEngine builds an engine; it panics on an invalid configuration
// (configurations are static here, so an error return would only be
// rethrown by every caller). Every variable-size structure is allocated
// here, sized from the configuration; the per-run churn (ready set, wake
// heap, MOB ring, pending-collision and miss-detection buffers) recycles
// those arrays, so a warmed-up engine simulates without allocating.
func NewEngine(cfg Config, src Source) *Engine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	mobCap := cfg.RenamePool
	if mobCap < 16 {
		mobCap = 16
	}
	e := &Engine{
		cfg:            cfg,
		hier:           cache.NewHierarchy(cfg.Hier),
		missq:          cache.NewMissQueue(16),
		rob:            newROB(cfg.RenamePool),
		readyList:      make([]int32, 0, cfg.Window),
		wakeQ:          make(wakeHeap, 0, cfg.RenamePool),
		mob:            newMOB(mobCap),
		pendingColl:    make([]int32, 0, 16),
		missDetections: make([]int64, 0, 16),
	}
	e.setSource(src)
	deps := PolicyDeps{Hier: e.hier, MissQ: e.missq}
	if cfg.NewPolicy != nil {
		e.policy = cfg.NewPolicy(deps)
	} else {
		e.policy = DefaultPolicy(cfg, deps)
	}
	e.defPol, _ = e.policy.(*defaultPolicy)
	e.oracle = e.policy.Oracle()
	e.resetState()
	return e
}

// resetState restores the construction-time machine state in place, keeping
// every allocated structure (the ROB's parallel slices, ready list, wake
// heap, MOB ring, buffers).
func (e *Engine) resetState() {
	e.rob.reset()
	e.head, e.count, e.rsCount = 0, 0, 0
	e.readyList = e.readyList[:0]
	e.wakeQ = e.wakeQ[:0]
	e.renameAge = 0
	e.now = 0
	e.mob.start, e.mob.length = 0, 0
	e.mob.first = 1
	e.staDoneTo, e.allDoneTo = 1, 1
	e.pendingColl = e.pendingColl[:0]
	e.awaitingBranch, e.resumeAt = false, 0
	e.intUsed, e.memUsed, e.fpUsed, e.cplxUsed, e.stdUsed = 0, 0, 0, 0, 0
	e.replayMemDebt, e.replayIntDebt = 0, 0
	e.recoveryStallUntil, e.recoveryCause = 0, stallNone
	e.missDetections = e.missDetections[:0]
	e.cycleRetired, e.cycleRenameStalled, e.schedHold = 0, false, stallNone
	e.stats = Stats{}
}

// Reset restores the engine to the state NewEngine left it in — same
// configuration, fresh machine — reusing every allocation: the caches and
// miss queue reset in place (so policies holding the Hierarchy pointer stay
// wired), the speculation policy resets its predictor tables, and the
// engine-side structures rewind via resetState. src supplies the next run's
// uop stream. It returns false, leaving the engine untouched, when the
// policy does not implement PolicyResetter — such engines cannot be reused
// and callers must build a fresh one. A Reset engine produces bit-identical
// statistics to a newly constructed engine with the same configuration.
func (e *Engine) Reset(src Source) bool {
	rp, ok := e.policy.(PolicyResetter)
	if !ok {
		return false
	}
	rp.Reset()
	e.hier.Reset()
	e.missq.Reset()
	e.setSource(src)
	e.resetState()
	return true
}

// setSource wires the uop supplier and drops any unconsumed run of the
// previous one.
func (e *Engine) setSource(src Source) {
	e.src = src
	e.fetchRefU, e.fetchRefD = nil, nil
	e.fetchPos = 0
}

// Now returns the engine-local cycle count.
func (e *Engine) Now() int64 { return e.now }

// Run simulates until n uops retire after warmup and returns the measured
// statistics: Config.WarmupUops retirements, a reset of the statistics and
// the L1D/L2 counters, then n measured retirements.
func (e *Engine) Run(n int) Stats {
	if n < 0 {
		panic(fmt.Sprintf("ooo: Run of a negative uop count %d", n))
	}
	if e.cfg.WarmupUops > 0 {
		e.runUops("warmup", e.cfg.WarmupUops)
		e.stats = Stats{}
		e.hier.L1D().ResetStats()
		e.hier.L2().ResetStats()
	}
	start := e.now
	e.runUops("measure", n)
	e.stats.Cycles = e.now - start
	return e.stats
}

// runUops advances the machine until n more uops retire. A phase that runs
// 1000 cycles per uop plus a million past its start without finishing is
// wedged, and panics with the machine state that explains why.
func (e *Engine) runUops(phase string, n int) {
	target := e.stats.Uops + uint64(n)
	guard := e.now + int64(n)*1000 + 1_000_000
	for e.stats.Uops < target {
		if !e.naive {
			// Jump over cycles where the machine provably cannot act,
			// attributing them in bulk (see ready.go). Sits before cycle()
			// so a measurement boundary never lands inside a skipped span.
			e.fastForward()
		}
		e.cycle()
		if e.now > guard {
			panic(e.livelock(phase, target))
		}
	}
}

// livelock describes a wedged phase: where the run stopped and the oldest
// uop, whose failure to complete is what holds retirement back.
func (e *Engine) livelock(phase string, target uint64) string {
	msg := fmt.Sprintf("ooo: livelock in %s phase at cycle %d: retired %d of %d uops",
		phase, e.now, e.stats.Uops, target)
	if e.count == 0 {
		return msg + "; ROB empty"
	}
	h := e.head
	return msg + fmt.Sprintf("; ROB head %s age %d flags %#x nwaiting %d",
		uop.Kind(e.rob.kind[h]), e.rob.age[h], e.rob.flags[h], e.rob.nwaiting[h])
}

// cycle advances the machine one clock: retire, resolve collisions,
// dispatch, then fetch/rename. Dispatch precedes rename so a uop spends at
// least one cycle in the scheduling window. After the stages run, the cycle
// is attributed to exactly one CPI-stack cause.
func (e *Engine) cycle() {
	e.now++
	e.cycleRetired = 0
	e.cycleRenameStalled = false
	e.schedHold = stallNone
	e.retire()
	e.resolveCollisions()
	e.dispatch()
	e.fetchRename()
	e.attributeCycle()
}

// robIdx maps a head-relative window position to its slot. Every caller
// passes pos < size (rename stalls before count reaches the pool size), so
// one conditional wrap replaces the modulo on this rename/dispatch-hot
// helper.
func (e *Engine) robIdx(pos int) int {
	i := e.head + pos
	if n := e.rob.size(); i >= n {
		i -= n
	}
	return i
}
