package ooo

// Memory-order buffer (MOB) stage: tracks every in-flight store's two
// halves, classifies loads against older stores (the paper's
// conflicting/colliding taxonomy), answers the ordering queries the
// speculation policy asks through MOBView, and resolves collided loads once
// the offending store's data timing is known. The MOB is mobState
// (engine.go): a ring of parallel arrays addressed by ring position, each
// record's status a single flag byte, with store ids implicit in the ring
// offset — the classification walks below stream a dense byte array and
// never chase a pointer.

// mobIdx maps an offset from mob.first to its ring position. The offset is
// always < capacity, so one conditional wrap replaces a modulo.
func (e *Engine) mobIdx(off int) int {
	i := e.mob.start + off
	if n := e.mob.capacity(); i >= n {
		i -= n
	}
	return i
}

// mobGrow doubles the ring, re-laying the live records out from position 0.
// Live stores are bounded by the rename pool the ring was sized from, so
// this is a degenerate-workload escape hatch, not a steady-state path.
func (e *Engine) mobGrow() {
	old := e.mob
	grown := newMOB(2 * old.capacity())
	for i := 0; i < old.length; i++ {
		src := e.mobIdx(i)
		grown.addr[i] = old.addr[src]
		grown.size[i] = old.size[src]
		grown.flags[i] = old.flags[src]
		grown.stdExecCyc[i] = old.stdExecCyc[src]
	}
	grown.start, grown.length, grown.first = 0, old.length, old.first
	e.mob = grown
}

// mobPush appends the record of a freshly renamed STA's store, which
// becomes the youngest store: id lastStoreID(). stdExecCyc is left stale,
// since it is read only under mStdExec.
func (e *Engine) mobPush(addr uint64, size int32) {
	if e.mob.length == e.mob.capacity() {
		e.mobGrow()
	}
	pos := e.mobIdx(e.mob.length)
	e.mob.addr[pos], e.mob.size[pos], e.mob.flags[pos] = addr, size, 0
	e.mob.length++
}

// mobGet returns store id's ring position, or -1 when the record has been
// pruned (or never existed).
func (e *Engine) mobGet(id int64) int {
	off := id - e.mob.first
	if off < 0 || off >= int64(e.mob.length) {
		return -1
	}
	return e.mobIdx(int(off))
}

// lastStoreID returns the id of the youngest store renamed so far, which is
// also how many STAs have renamed: records are appended only at STA rename
// and pruned only from the head, and newMOB starts first at 1.
func (e *Engine) lastStoreID() int64 { return e.mob.first + int64(e.mob.length) - 1 }

// storesDoneTo advances a completed-store watermark and returns it: the id
// of the oldest in-window store that is not known complete for want (or one
// past the youngest record when all are). A record is born at its STA's
// rename with no bits set, and its flag bits are only ever set afterwards,
// so a store below the watermark stays complete and the cached value never
// moves back.
func (e *Engine) storesDoneTo(cached *int64, want uint8) int64 {
	id := *cached
	if id < e.mob.first {
		id = e.mob.first
	}
	end := e.mob.first + int64(e.mob.length)
	for id < end {
		if e.mob.flags[e.mobIdx(int(id-e.mob.first))]&want != want {
			break
		}
		id++
	}
	*cached = id
	return id
}

// mobSegsFrom returns the ring positions of the in-window stores with
// minID ≤ id ≤ maxID as up to two contiguous index ranges, [a0,a1) then
// [b0,b1), over the MOB's parallel arrays. Walking the ranges in order
// visits stores oldest first: the wrap point is resolved once here so the
// classification loops below scan dense flag bytes with no per-record
// bounds or wrap arithmetic. The walks pass the allDoneTo watermark as
// minID, skipping the known-complete prefix that cannot satisfy their
// predicates.
func (e *Engine) mobSegsFrom(minID, maxID int64) (a0, a1, b0, b1 int) {
	lo := minID - e.mob.first
	if lo < 0 {
		lo = 0
	}
	k := maxID - e.mob.first + 1
	if n := int64(e.mob.length); k > n {
		k = n
	}
	if k <= lo {
		return 0, 0, 0, 0
	}
	n := e.mob.capacity()
	a0 = e.mob.start + int(lo)
	a1 = e.mob.start + int(k)
	switch {
	case a0 >= n: // whole range is past the wrap point
		return a0 - n, a1 - n, 0, 0
	case a1 > n: // range straddles the wrap point
		return a0, n, 0, a1 - n
	}
	return a0, a1, 0, 0
}

// mobPrune drops fully retired stores from the MOB head.
func (e *Engine) mobPrune() {
	const retired = mStaRetired | mStdRetired
	for e.mob.length > 0 {
		if e.mob.flags[e.mob.start]&retired != retired {
			return
		}
		e.mob.start++
		if e.mob.start == e.mob.capacity() {
			e.mob.start = 0
		}
		e.mob.length--
		e.mob.first++
	}
}

// overlap reports whether two accesses touch common bytes.
func overlap(a uint64, asz int, b uint64, bsz int) bool {
	return a < b+uint64(bsz) && b < a+uint64(asz)
}

// classifyLoad computes the AC/ANC/not-conflicting status of Figure 1 for
// the load in slot idx.
//
// A load is *conflicting* when an older in-window store is incomplete at the
// load's schedule time, and *colliding* when such a store also overlaps the
// load's address — i.e. advancing the load would make it consume stale data
// and pay the collision penalty. (The paper defines conflict through
// unresolved STAs only; we fold in pending STDs so that the classification,
// the collision penalty, and CHT training all describe the same event — see
// DESIGN.md.)
func (e *Engine) classifyLoad(idx int32) {
	r := &e.rob
	r.flags[idx] |= fClassified
	addr, size := uint64(r.u[idx].Addr), int(r.u[idx].Size())
	conflicting, colliding, dist := false, false, int64(0)
	older := r.lastStore[idx]
	const executed = mStaExec | mStdExec
	flags, addrs, sizes := e.mob.flags, e.mob.addr, e.mob.size
	// Stores below the both-halves watermark can satisfy neither the
	// conflicting nor the colliding predicate; walk only the live suffix.
	lo := e.storesDoneTo(&e.allDoneTo, executed) // ≥ mob.first
	a0, a1, b0, b1 := e.mobSegsFrom(lo, older)
	id := lo
	// Both ring segments walked with the same body, unrolled so the hot
	// pre-wrap segment runs without per-segment range setup.
	for pos := a0; pos < a1; pos++ {
		// A store is ambiguous only while a half is undispatched: once
		// both halves have at least dispatched, the scheduler knows the
		// address and the data timing.
		if flags[pos]&executed != executed {
			conflicting = true
			if overlap(addrs[pos], int(sizes[pos]), addr, size) {
				colliding = true
				d := older - id + 1
				if dist == 0 || d < dist {
					dist = d
				}
			}
		}
		id++
	}
	for pos := b0; pos < b1; pos++ {
		if flags[pos]&executed != executed {
			conflicting = true
			if overlap(addrs[pos], int(sizes[pos]), addr, size) {
				colliding = true
				d := older - id + 1
				if dist == 0 || d < dist {
					dist = d
				}
			}
		}
		id++
	}
	if conflicting {
		r.flags[idx] |= fConflicting
	}
	if colliding {
		r.flags[idx] |= fColliding
	}
	r.collDist[idx] = int32(dist)
}

// mobView hands the speculation policy a read-only window onto the MOB.
func (e *Engine) mobView() MOBView { return engineMOB{e} }

// engineMOB adapts the engine's MOB to the policy-facing MOBView.
type engineMOB struct{ e *Engine }

func (m engineMOB) FirstStore() int64 { return m.e.mob.first }

// StoresComplete reports whether all in-window stores with id ≤ maxID have
// dispatched their STA (and, if withSTD, their STD). The watermark compare
// makes this O(1) amortized: it is the per-cycle ordering query the
// Traditional and Conservative schemes ask for every held load, and before
// the watermarks a long MOB meant rescanning it from the oldest store each
// time.
func (m engineMOB) StoresComplete(maxID int64, withSTD bool) bool {
	// Fast path: the cached watermark already clears maxID. Watermarks
	// never regress, so a clearing cache needs no re-examination — the
	// advance loop (and its MOB flag loads) is skipped entirely in the
	// steady state where the queried load trails the completed-store
	// frontier.
	if withSTD {
		return m.e.allDoneTo > maxID ||
			m.e.storesDoneTo(&m.e.allDoneTo, mStaExec|mStdExec) > maxID
	}
	return m.e.staDoneTo > maxID ||
		m.e.storesDoneTo(&m.e.staDoneTo, mStaExec) > maxID
}

func (m engineMOB) OverlapIncomplete(maxID int64, addr uint64, size int) bool {
	const executed = mStaExec | mStdExec
	flags, addrs, sizes := m.e.mob.flags, m.e.mob.addr, m.e.mob.size
	a0, a1, b0, b1 := m.e.mobSegsFrom(m.e.storesDoneTo(&m.e.allDoneTo, executed), maxID)
	for _, sg := range [2][2]int{{a0, a1}, {b0, b1}} {
		for pos := sg[0]; pos < sg[1]; pos++ {
			if flags[pos]&executed != executed &&
				overlap(addrs[pos], int(sizes[pos]), addr, size) {
				return true
			}
		}
	}
	return false
}

// finishCollidedLoad completes a collided load once the colliding store's
// data time is known. The wrongly-advanced load re-executes after the store
// data arrives: it pays the forwarding/cache latency again plus the
// recovery penalty. A correctly-delayed load would have dispatched at
// stdDone and seen its data one cache latency later, so the collision costs
// exactly CollisionPenalty extra — the paper's accounting.
func (e *Engine) finishCollidedLoad(idx int32, stdDone int64) {
	r := &e.rob
	r.flags[idx] |= fDone
	done := stdDone + int64(e.cfg.Lat.L1+e.cfg.CollisionPenalty)
	if r.cacheDone[idx] > done {
		done = r.cacheDone[idx]
	}
	r.doneCycle[idx] = done
	// A machine without the P6 stall-in-RS ability re-executes the load and
	// its dependents "until the STD is successfully completed" (§1.1): one
	// replay round per cache latency of waiting, each burning issue slots.
	rounds := 1 + int(stdDone-r.dispCycle[idx])/e.cfg.Lat.L1
	if rounds < 1 {
		rounds = 1
	}
	e.replayMemDebt += rounds
	e.replayIntDebt += rounds * e.cfg.CollisionReplayUops
	e.wakeDependents(idx)
}

// resolveCollisions completes loads whose colliding STD has now executed.
func (e *Engine) resolveCollisions() {
	if len(e.pendingColl) == 0 {
		return
	}
	kept := e.pendingColl[:0]
	for _, idx := range e.pendingColl {
		pos := e.mobGet(e.rob.waitStore[idx])
		if pos < 0 {
			// The store fully retired in this very cycle's retire phase (its
			// STD completed just before we ran). The collision still
			// happened — resolve it against the current cycle so the penalty
			// is not silently dropped.
			e.finishCollidedLoad(idx, e.now)
			continue
		}
		if e.mob.flags[pos]&mStdExec != 0 && e.mob.stdExecCyc[pos] <= e.now {
			e.finishCollidedLoad(idx, e.mob.stdExecCyc[pos])
			// The violation is detected now: the scheduler spends a bubble
			// re-sequencing the load's dependence tree.
			until := e.now + int64(e.cfg.CollisionRecoveryBubble)
			if until > e.recoveryStallUntil {
				e.recoveryStallUntil = until
				e.recoveryCause = stallCollision
			}
			continue
		}
		kept = append(kept, idx)
	}
	e.pendingColl = kept
}
