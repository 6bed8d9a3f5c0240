package ooo

import "loadsched/internal/uop"

// Schedule/dispatch stage: offers operand-ready window slots to the
// execution ports oldest-first each cycle, pays down replay debt, and
// applies the speculation policy's ordering and bank-steering decisions to
// ready loads. Readiness is tracked event-driven (ready.go): completions
// wake their register consumers into an age-ordered ready list, so the walk
// below touches only ready slots — reading the ROB's parallel flag and age
// arrays — instead of re-scanning the whole window. Recovery bubbles
// (collision repair, late-discovered misses) gate the whole stage. The age
// (= rename) order makes the first scheduler hold noted per cycle the
// oldest one, which is what feeds the CPI stack.

func (e *Engine) dispatch() {
	e.processMissDetections()
	if e.now < e.recoveryStallUntil {
		return // replay/collision recovery in progress: no dispatch this cycle
	}
	if e.naive {
		e.dispatchNaive()
		return
	}
	e.intUsed, e.memUsed, e.fpUsed, e.cplxUsed, e.stdUsed = 0, 0, 0, 0, 0
	e.drainReplayDebt()
	if p := e.defPol; p != nil {
		p.bank.begin()
	} else {
		e.policy.BeginCycle()
	}
	e.drainWakeQ()
	// Indexed loop: a zero-latency completion inside the walk may insert a
	// same-cycle consumer, which (being younger) always lands after i. Held
	// entries compact toward the front in the same pass (w never catches
	// i, so the writes stay behind the read cursor and appended entries
	// are untouched until visited).
	w := 0
	for i := 0; i < len(e.readyList); i++ {
		idx := e.readyList[i]
		e.dispatchEntry(idx)
		if e.rob.flags[idx]&fDispatched == 0 {
			e.readyList[w] = idx // still held: re-offer next cycle
			w++
		}
	}
	e.readyList = e.readyList[:w]
}

// processMissDetections arms the miss-recovery bubble for every AM-PH miss
// whose hit indication has come due. It runs even while dispatch is
// recovery-stalled (a due detection extends the stall).
func (e *Engine) processMissDetections() {
	if len(e.missDetections) == 0 {
		return
	}
	kept := e.missDetections[:0]
	for _, d := range e.missDetections {
		if d <= e.now {
			if until := e.now + int64(e.cfg.MissRecoveryBubble); until > e.recoveryStallUntil {
				e.recoveryStallUntil = until
				e.recoveryCause = stallMissReplay
			}
			continue
		}
		kept = append(kept, d)
	}
	// The backing array is deliberately retained (capacity is bounded by the
	// loads in flight): detections recur throughout a run.
	e.missDetections = kept
}

// dispatchNaive is the retained reference scheduler, selected by the
// unexported naive field that only in-package tests set: the original
// full-window walk that polls sourcesReady on every slot. The differential
// property test pins the event-driven core against it.
func (e *Engine) dispatchNaive() {
	e.intUsed, e.memUsed, e.fpUsed, e.cplxUsed, e.stdUsed = 0, 0, 0, 0, 0
	e.drainReplayDebt()
	if p := e.defPol; p != nil {
		p.bank.begin()
	} else {
		e.policy.BeginCycle()
	}
	for pos := 0; pos < e.count; pos++ {
		idx := int32(e.robIdx(pos))
		f := e.rob.flags[idx]
		if f&fValid == 0 || f&fInRS == 0 || f&fDispatched != 0 {
			continue
		}
		if !e.sourcesReady(idx) {
			continue
		}
		e.dispatchEntry(idx)
	}
}

// dispatchEntry offers one operand-ready slot to its execution port. Both
// schedulers funnel through here, so port allocation, hold accounting and
// completion are identical by construction.
func (e *Engine) dispatchEntry(idx int32) {
	switch uop.Kind(e.rob.kind[idx]) {
	case uop.Load:
		e.maybeDispatchLoad(idx)
	case uop.STA:
		if e.memUsed < e.cfg.MemUnits {
			e.memUsed++
			e.dispatchSTA(idx)
		} else {
			e.noteSchedHold(stallPort)
		}
	case uop.STD:
		if e.stdUsed < e.cfg.STDPorts {
			e.stdUsed++
			e.dispatchSTD(idx)
		} else {
			e.noteSchedHold(stallPort)
		}
	case uop.FPU:
		if e.fpUsed < e.cfg.FPUnits {
			e.fpUsed++
			e.complete(idx, e.cfg.latencyOf(uop.FPU))
		} else {
			e.noteSchedHold(stallPort)
		}
	case uop.Complex:
		if e.cplxUsed < e.cfg.ComplexUnits {
			e.cplxUsed++
			e.complete(idx, e.cfg.latencyOf(uop.Complex))
		} else {
			e.noteSchedHold(stallPort)
		}
	default: // IntALU, Branch, Nop
		if e.intUsed < e.cfg.IntUnits {
			e.intUsed++
			e.complete(idx, e.cfg.latencyOf(uop.Kind(e.rob.kind[idx])))
			if e.rob.flags[idx]&fBlockingBranch != 0 {
				e.awaitingBranch = false
				e.resumeAt = e.rob.doneCycle[idx] + int64(e.cfg.FrontEndRefill)
			}
		} else {
			e.noteSchedHold(stallPort)
		}
	}
}

// maybeDispatchLoad applies classification and the active ordering scheme,
// then executes the load if allowed.
func (e *Engine) maybeDispatchLoad(idx int32) {
	// Classification happens at schedule time: the first cycle the load's
	// operands are ready (paper §2.1 definition of a conflicting load).
	// The policy-visible view is built once alongside it — every field is
	// fixed at rename — and held loads are re-offered with a pointer into
	// the slot's cached view.
	if e.rob.flags[idx]&fClassified == 0 {
		e.classifyLoad(idx)
		e.rob.lv[idx] = e.loadView(idx)
	}
	if e.memUsed >= e.cfg.MemUnits {
		e.noteSchedHold(stallPort)
		return
	}
	lv := &e.rob.lv[idx]
	if !e.orderingAllows(lv) {
		e.noteSchedHold(stallOrdering)
		return
	}
	var d BankDecision
	if p := e.defPol; p != nil {
		d = p.bank.admit(lv)
	} else {
		d = e.policy.AdmitBank(lv)
	}
	if d.Conflict {
		e.stats.BankConflicts++
	}
	if d.Mispredict {
		e.stats.BankMispredicts++
	}
	if d.Duplicate {
		e.stats.BankDuplicates++
	}
	if !d.Admit {
		e.noteSchedHold(stallBank)
		return
	}
	e.rob.bankDelay[idx] = d.Delay
	e.memUsed++
	e.executeLoad(idx)
}

// orderingAllows asks the policy whether the load may pass the older
// stores in the MOB. lv is the caller's already-built view of the load —
// maybeDispatchLoad shares one construction between this check and
// AdmitBank.
func (e *Engine) orderingAllows(lv *LoadView) bool {
	if p := e.defPol; p != nil {
		return p.AllowOrdering(lv, e.mobView())
	}
	return e.policy.AllowOrdering(lv, e.mobView())
}

// drainReplayDebt spends owed replay slots against this cycle's ports.
func (e *Engine) drainReplayDebt() {
	for e.replayMemDebt > 0 && e.memUsed < e.cfg.MemUnits {
		e.memUsed++
		e.replayMemDebt--
	}
	for e.replayIntDebt > 0 && e.intUsed < e.cfg.IntUnits {
		e.intUsed++
		e.replayIntDebt--
	}
}

func (e *Engine) sourcesReady(idx int32) bool {
	r := &e.rob
	return e.producerReady(r.src1Prod[idx], r.src1Age[idx]) &&
		e.producerReady(r.src2Prod[idx], r.src2Age[idx])
}

func (e *Engine) producerReady(idx int32, age int64) bool {
	if idx < 0 {
		return true
	}
	if e.rob.flags[idx]&fValid == 0 || e.rob.age[idx] != age {
		return true // retired
	}
	return e.rob.flags[idx]&fDone != 0 && e.rob.doneCycle[idx] <= e.now
}

// complete marks a fixed-latency uop dispatched with its completion time,
// which is final — so its register consumers can be woken immediately.
func (e *Engine) complete(idx int32, lat int) {
	e.rob.flags[idx] = e.rob.flags[idx]&^fInRS | fDispatched | fDone
	e.rsCount--
	e.rob.doneCycle[idx] = e.now + int64(lat)
	e.wakeDependents(idx)
}

func (e *Engine) dispatchSTA(idx int32) {
	e.complete(idx, e.cfg.LatSTA)
	e.mob.flags[e.mobGet(e.rob.lastStore[idx])] |= mStaExec
	// The store allocates its line (write-allocate) once its address is
	// known; timing-wise the fill rides the store buffer, so no load-visible
	// latency is modelled here.
	e.hier.Access(uint64(e.rob.u[idx].Addr))
}

func (e *Engine) dispatchSTD(idx int32) {
	e.complete(idx, e.cfg.LatSTD)
	pos := e.mobGet(e.rob.lastStore[idx])
	e.mob.flags[pos] |= mStdExec
	e.mob.stdExecCyc[pos] = e.rob.doneCycle[idx]
}
