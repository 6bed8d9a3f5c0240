package ooo

// CPI-stack accounting: every simulated cycle is attributed to exactly one
// cause, so the per-cause cycle counts sum to the total cycle count by
// construction. Attribution is retirement-centric (the classic CPI-stack
// construction): a cycle that retires work is base; a cycle that retires
// nothing is charged, in priority order, to a dispatch-gating recovery
// bubble, an empty window (front-end refill), the oldest ready uop the
// scheduler actively HELD (ordering / bank / port — the actionable causes
// the paper's predictors attack), and otherwise to the oldest instruction's
// own waiting (window pressure or operand/execution latency).
//
// The stack is observational only — it reads per-cycle evidence the stages
// already produce and never influences scheduling — so enabling it cannot
// perturb figure output.

// stallCause is the engine-internal evidence tag for why the window head
// (or the whole machine) could not make progress this cycle.
type stallCause uint8

const (
	stallNone stallCause = iota
	// stallCollision / stallMissReplay mark which repair set the current
	// recovery bubble.
	stallCollision
	stallMissReplay
	// stallOrdering / stallBank / stallPort record why the oldest ready
	// window uop was held by the scheduler.
	stallOrdering
	stallBank
	stallPort
)

// CPIStack is the per-cause cycle attribution of one run. Each simulated
// cycle increments exactly one field, so Total always equals Stats.Cycles
// over the measured region.
type CPIStack struct {
	// Base counts cycles that retired at least one uop.
	Base int64
	// Frontend counts empty-window cycles: the front end is refilling after
	// a mispredicted branch (or has not yet delivered the first uops).
	Frontend int64
	// WindowFull counts cycles where the oldest uop is executing, nothing
	// retired, and rename stalled for window/pool space — the window is too
	// small to find more ILP under the in-flight latency.
	WindowFull int64
	// PortContention counts cycles the oldest ready uop was held because all
	// suitable execution ports were taken (including slots consumed by
	// replay debt).
	PortContention int64
	// OrderingWait counts cycles the oldest ready uop — a load — was held by
	// the memory-ordering scheme: the cost the paper's
	// collision prediction attacks.
	OrderingWait int64
	// BankConflict counts cycles the oldest ready uop — a load — was held by
	// the banked-cache steering policy.
	BankConflict int64
	// CollisionRecovery counts dispatch-gating bubble cycles spent repairing
	// a memory-ordering violation.
	CollisionRecovery int64
	// MissReplay counts dispatch-gating bubble cycles spent squashing and
	// rescheduling the dependents of a load that was predicted to hit but
	// missed (AM-PH).
	MissReplay int64
	// DataStall counts the remaining no-retire cycles: no ready uop was held
	// by a scheduler decision; the oldest instruction is waiting on operand
	// producers or on its own execution latency (cache miss service,
	// collision resolution) without the window being full.
	DataStall int64
}

// Total sums every cause; it equals Stats.Cycles over the measured region.
func (c CPIStack) Total() int64 {
	return c.Base + c.Frontend + c.WindowFull + c.PortContention +
		c.OrderingWait + c.BankConflict + c.CollisionRecovery + c.MissReplay + c.DataStall
}

// Add accumulates another run's stack (trace-group pooling).
func (c *CPIStack) Add(o CPIStack) {
	c.Base += o.Base
	c.Frontend += o.Frontend
	c.WindowFull += o.WindowFull
	c.PortContention += o.PortContention
	c.OrderingWait += o.OrderingWait
	c.BankConflict += o.BankConflict
	c.CollisionRecovery += o.CollisionRecovery
	c.MissReplay += o.MissReplay
	c.DataStall += o.DataStall
}

// noteSchedHold records why a schedule-stage decision held a ready uop.
// The dispatch walk visits window entries oldest-first, so the first note
// of a cycle belongs to the oldest held uop — the one the CPI stack charges
// a no-retire cycle to. (A uop whose operands are not ready is waiting, not
// held, and never notes a hold.)
func (e *Engine) noteSchedHold(cause stallCause) {
	if e.schedHold == stallNone {
		e.schedHold = cause
	}
}

// attributeCycle charges the cycle that just ran to exactly one cause. It
// runs after all stages, so it sees the cycle's retire count, recovery
// state, scheduler-hold evidence and rename-stall flag.
func (e *Engine) attributeCycle() {
	c := &e.stats.CPI
	switch {
	case e.cycleRetired > 0:
		c.Base++
	case e.now < e.recoveryStallUntil:
		if e.recoveryCause == stallMissReplay {
			c.MissReplay++
		} else {
			c.CollisionRecovery++
		}
	case e.count == 0:
		c.Frontend++
	default:
		// The scheduler held a ready uop: the hold is the actionable cause
		// (the ordering/bank predictors exist to remove exactly these).
		switch e.schedHold {
		case stallOrdering:
			c.OrderingWait++
			return
		case stallBank:
			c.BankConflict++
			return
		case stallPort:
			c.PortContention++
			return
		}
		// Nothing was held: the oldest instruction is executing or waiting
		// on operands. If rename also stalled for space, the window itself
		// is the limiter; otherwise it is a data/latency stall.
		if e.cycleRenameStalled {
			c.WindowFull++
		} else {
			c.DataStall++
		}
	}
}
