package ooo

import "math"

// Event-driven scheduling core. The naive scheduler re-scans the whole
// window every cycle asking "are your operands ready yet?"; this file keeps
// that question answered incrementally instead:
//
//   - At rename, linkDeps registers the new uop on each unfinished
//     producer's wakeup list. The lists are intrusive index links over the
//     ROB's parallel slices (rob.waitHead / rob.waitNext): each slot owns
//     two preallocated link nodes, one per source operand, identified as
//     idx<<1|src — no per-entry backing slice exists. A uop whose producers
//     all have known completion times goes straight to the ready
//     structures.
//   - When a producer's completion time becomes known (complete,
//     executeLoad's non-collided exit, finishCollidedLoad), wakeDependents
//     walks the producer's link chain, folds that time into each waiter's
//     readyAt and, once the last unknown producer reports in, schedules the
//     waiter: into readyList if ready now, into the wakeQ time heap
//     otherwise. Pushing links at the head visits waiters in reverse
//     registration order, which is observably neutral: every effect funnels
//     through insertReady (a total order on unique ages) or the wake heap
//     (observed only through its minimum, with ties age-ordered on drain).
//   - dispatch drains the wakeQ up to the current cycle and walks only
//     readyList — in age order, which is rename order, so the walk visits
//     exactly the entries the naive oldest-first window scan would have
//     found ready, in the same order. Entries held by a scheduling decision
//     (ordering/bank/port) stay on the list and are re-offered every cycle,
//     preserving the per-cycle policy-call sequence and the
//     first-hold-wins CPI evidence.
//
// On top of the ready structures, fastForward jumps over spans of cycles
// where the machine provably cannot act, attributing them to the CPI stack
// in bulk with the same per-cycle causes attributeCycle would have chosen —
// so causes still sum to Cycles, and the golden figure output is
// byte-identical to the per-cycle walk.

// wakeEvent schedules ROB slot idx to become ready at cycle at.
type wakeEvent struct {
	at  int64
	idx int32
}

// wakeHeap is a 4-ary min-heap of wakeEvents ordered by at. Pop order
// among equal cycles is arbitrary; insertReady re-establishes age order.
// The wider node halves the sift depth of a binary heap: pushes — one per
// operand-waiting uop — compare against a quarter as many ancestors, and
// the extra sibling compares on pop stay in one cache line of events.
type wakeHeap []wakeEvent

func (h *wakeHeap) push(ev wakeEvent) {
	q := append(*h, ev)
	*h = q
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if q[p].at <= q[i].at {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
}

func (h *wakeHeap) pop() wakeEvent {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	*h = q
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		hi := c + 4
		if hi > n {
			hi = n
		}
		for s := c + 1; s < hi; s++ {
			if q[s].at < q[c].at {
				c = s
			}
		}
		if q[i].at <= q[c].at {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	return top
}

// linkDeps wires a freshly renamed slot into the wakeup graph. Producers
// whose completion time is already known contribute it to readyAt;
// unfinished producers get the slot's link node (idx<<1|src) pushed onto
// their chain. With no unfinished producers the slot is scheduled
// immediately.
func (e *Engine) linkDeps(idx int32) {
	if e.naive {
		return
	}
	r := &e.rob
	var ready int64
	if p := r.src1Prod[idx]; p >= 0 {
		if r.flags[p]&fDone != 0 {
			if d := r.doneCycle[p]; d > ready {
				ready = d
			}
		} else {
			n := idx << 1 // source-0 link node
			r.waitNext[n] = r.waitHead[p]
			r.waitHead[p] = n
			r.nwaiting[idx]++
		}
	}
	if p := r.src2Prod[idx]; p >= 0 {
		if r.flags[p]&fDone != 0 {
			if d := r.doneCycle[p]; d > ready {
				ready = d
			}
		} else {
			n := idx<<1 | 1 // source-1 link node
			r.waitNext[n] = r.waitHead[p]
			r.waitHead[p] = n
			r.nwaiting[idx]++
		}
	}
	r.readyAt[idx] = ready
	if r.nwaiting[idx] == 0 {
		e.enqueueReady(idx, ready)
	}
}

// wakeDependents reports slot idx's now-final doneCycle to every waiter on
// its link chain. A waiter whose last unknown producer this was gets
// scheduled. Called exactly once per slot, at the one point its doneCycle
// becomes final; the chain is detached up front, which frees every visited
// link node (a node is live only while its slot waits on this producer).
func (e *Engine) wakeDependents(idx int32) {
	r := &e.rob
	n := r.waitHead[idx]
	if n < 0 {
		return
	}
	r.waitHead[idx] = -1
	done := r.doneCycle[idx]
	for n >= 0 {
		w := n >> 1
		n = r.waitNext[n]
		if done > r.readyAt[w] {
			r.readyAt[w] = done
		}
		r.nwaiting[w]--
		if r.nwaiting[w] == 0 {
			e.enqueueReady(w, r.readyAt[w])
		}
	}
}

// enqueueReady schedules an operand-complete slot: the wakeQ if its data
// arrives in the future, the ready list if it is dispatchable already.
func (e *Engine) enqueueReady(idx int32, at int64) {
	if at > e.now {
		e.wakeQ.push(wakeEvent{at: at, idx: idx})
		return
	}
	e.insertReady(idx)
}

// insertReady places idx into readyList keeping age order. The common case
// — waking an entry younger than everything already ready — is a plain
// append. Insertion during the dispatch walk is safe: a same-cycle waker's
// consumer is younger than its producer, so it lands after the walk index.
func (e *Engine) insertReady(idx int32) {
	rl := e.readyList
	ages := e.rob.age
	age := ages[idx]
	if n := len(rl); n == 0 || ages[rl[n-1]] < age {
		e.readyList = append(rl, idx)
		return
	}
	lo, hi := 0, len(rl)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ages[rl[mid]] < age {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	rl = append(rl, 0)
	copy(rl[lo+1:], rl[lo:])
	rl[lo] = idx
	e.readyList = rl
}

// drainWakeQ moves every entry whose operands have arrived by the current
// cycle from the time heap into the ready list.
func (e *Engine) drainWakeQ() {
	for len(e.wakeQ) > 0 && e.wakeQ[0].at <= e.now {
		e.insertReady(e.wakeQ.pop().idx)
	}
}

// fastForward jumps e.now to just before the next cycle the machine can
// act, bulk-attributing the skipped idle cycles. Run by runUops immediately
// before cycle(), so a warmup/measurement boundary never lands inside a
// skipped span.
func (e *Engine) fastForward() {
	next := e.idleSpan()
	if next == 0 {
		return
	}
	n := next - e.now - 1
	if n <= 0 {
		return
	}
	e.bulkIdle(n)
	e.now += n
}

// idleSpan returns the earliest future cycle at which any pipeline stage
// can act, or 0 when the very next cycle can. A cycle k is provably inert
// when: retire has nothing completed (head not done, or done later than k);
// no pending collision resolves by k; no miss detection comes due by k;
// dispatch is either recovery-stalled through k or has an empty ready set,
// zero replay debt and no wakeup due by k; and the front end is blocked (by
// a mispredicted branch or the refill window) or out of window/pool space.
// Every one of those conditions is pinned by an explicit event cycle below,
// so state cannot change anywhere inside the returned span.
func (e *Engine) idleSpan() int64 {
	k := e.now + 1 // the next cycle, the first candidate to skip
	next := int64(math.MaxInt64)
	upd := func(ev int64) {
		if ev < next {
			next = ev
		}
	}

	// Retire: the window head's completion is the only retire trigger.
	if e.count > 0 {
		if h := e.head; e.rob.flags[h]&fDone != 0 {
			d := e.rob.doneCycle[h]
			if d <= k {
				return 0
			}
			upd(d)
		}
	}
	// Collision resolution: a pending collided load resolves when its
	// store's STD completes. (The store cannot retire out from under the
	// record inside an idle span — retirement is already excluded above.)
	for _, idx := range e.pendingColl {
		pos := e.mobGet(e.rob.waitStore[idx])
		if pos < 0 {
			return 0
		}
		if e.mob.flags[pos]&mStdExec != 0 {
			c := e.mob.stdExecCyc[pos]
			if c <= k {
				return 0
			}
			upd(c)
		}
	}
	// Deferred miss detections arm recovery bubbles even while dispatch is
	// already stalled, so they bound every span.
	for _, d := range e.missDetections {
		if d <= k {
			return 0
		}
		upd(d)
	}
	if k < e.recoveryStallUntil {
		// Dispatch is bubble-stalled: ready entries and wakeups cannot act
		// until the stall lifts, which is itself the bounding event.
		upd(e.recoveryStallUntil)
	} else {
		if len(e.readyList) > 0 || e.replayMemDebt > 0 || e.replayIntDebt > 0 {
			return 0
		}
		if len(e.wakeQ) > 0 {
			if e.wakeQ[0].at <= k {
				return 0
			}
			upd(e.wakeQ[0].at)
		}
	}
	// Front end: an open front end with window space fetches next cycle.
	// Capacity cannot change inside a span (nothing retires or dispatches),
	// so a full window stays full.
	if !e.awaitingBranch {
		if k < e.resumeAt {
			upd(e.resumeAt)
		} else if e.count < e.rob.size() && e.rsCount < e.cfg.Window {
			return 0
		}
	}
	if next == math.MaxInt64 {
		// No future event at all (a wedged machine): don't skip, let the
		// livelock guard in runUops fail loudly.
		return 0
	}
	return next
}

// bulkIdle attributes n skipped cycles exactly as attributeCycle would have
// per cycle: nothing retires in a skipped span, so each cycle goes — in the
// same priority order — to the active recovery bubble, an empty window, or
// the window-full/data-stall split; and a capacity-blocked front end counts
// its rename stalls cycle for cycle. The span never crosses a state
// boundary (recoveryStallUntil, resumeAt and every completion are span
// events), so one attribution holds for all n cycles.
func (e *Engine) bulkIdle(n int64) {
	c := &e.stats.CPI
	frontOpen := !e.awaitingBranch && e.now+1 >= e.resumeAt
	renameStalled := frontOpen &&
		(e.count >= e.rob.size() || e.rsCount >= e.cfg.Window)
	if renameStalled {
		e.stats.RenameStalls += uint64(n)
	}
	switch {
	case e.now+1 < e.recoveryStallUntil:
		if e.recoveryCause == stallMissReplay {
			c.MissReplay += n
		} else {
			c.CollisionRecovery += n
		}
	case e.count == 0:
		c.Frontend += n
	case renameStalled:
		c.WindowFull += n
	default:
		c.DataStall += n
	}
}
