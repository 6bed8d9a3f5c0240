package ooo

import "loadsched/internal/cache"

// Execute stage (loads): performs the cache access of a dispatching load,
// applies the policy's latency speculation (hit-miss / level prediction),
// charges the mis-speculation penalties of §2.2, and detects ordering
// violations against older overlapping stores by walking the MOB's flat
// flag/address arrays.

// executeLoad performs the cache access, hit-miss prediction accounting and
// collision detection for the dispatching load in slot idx.
func (e *Engine) executeLoad(idx int32) {
	r := &e.rob
	r.flags[idx] = r.flags[idx]&^fInRS | fDispatched
	e.rsCount--
	r.dispCycle[idx] = e.now
	ip, addr, size := uint64(r.u[idx].IP), uint64(r.u[idx].Addr), int(r.u[idx].Size())

	// Latency prediction must precede the access (the perfect predictor
	// probes current cache state). Level-capable policies refine the binary
	// hit/miss to the servicing level (§2.2 "for all levels").
	var predLevel cache.Level
	if p := e.defPol; p != nil {
		predLevel = p.PredictLevel(ip, addr, e.now)
	} else {
		predLevel = e.policy.PredictLevel(ip, addr, e.now)
	}
	predHit := predLevel == cache.L1
	level := e.hier.Access(addr)
	r.level[idx] = level
	actualHit := level == cache.L1

	actualLat := e.cfg.Lat.Of(level)
	// Dynamic miss: the line's fill is still in flight (the cache model
	// fills eagerly, so the directory says hit, but the data has not
	// arrived). The load waits out the remaining fill time — and only the
	// timing-enhanced predictor can anticipate it (§2.2).
	dynamicMiss := false
	e.missq.Advance(e.now)
	if ready, ok := e.missq.ReadyAt(addr); ok && ready > e.now {
		actualHit = false
		dynamicMiss = true
		if rem := int(ready-e.now) + e.cfg.Lat.L1; rem > actualLat {
			actualLat = rem
		}
	}
	if e.oracle {
		predHit = actualHit
		predLevel = level
		if dynamicMiss {
			predLevel = cache.L2 // any non-L1 value: the oracle is exact below
		}
	}
	if predHit {
		r.flags[idx] |= fPredHit
	}
	if actualHit {
		r.flags[idx] |= fActualHit
	}
	predLat := e.cfg.Lat.Of(predLevel)
	var cacheDone int64
	switch {
	case actualHit && predHit: // AH-PH
		cacheDone = e.now + int64(actualLat)
	case actualHit && !predHit: // AH-PM: wait for the hit indication
		cacheDone = e.now + int64(actualLat+e.cfg.Lat.HitIndication)
	case !actualHit && predHit: // AM-PH: dependents replay
		cacheDone = e.now + int64(actualLat+e.cfg.MissReplayPenalty)
		e.replayIntDebt += e.cfg.MissReplayUops
		if e.cfg.MissRecoveryBubble > 0 {
			// The miss is discovered when the hit indication arrives; the
			// squash-and-reschedule bubble lands then.
			e.missDetections = append(e.missDetections, e.now+int64(e.cfg.Lat.HitIndication))
		}
	default: // AM-PM: dependents scheduled for the predicted level's latency
		cacheDone = e.now + int64(actualLat)
		switch {
		case dynamicMiss || e.oracle:
			// The MSHR (or the oracle) supplies the exact arrival time.
		case actualLat > predLat:
			// Serviced deeper than scheduled (e.g. predicted L2, went to
			// memory): the dependents scheduled for predLat replay.
			cacheDone += int64(e.cfg.MissReplayPenalty)
		case actualLat < predLat:
			// Serviced shallower than scheduled: dependents sleep until the
			// early indication wakes them.
			cacheDone = e.now + int64(actualLat+e.cfg.Lat.HitIndication)
		}
	}
	cacheDone += r.bankDelay[idx]
	r.cacheDone[idx] = cacheDone
	if !actualHit {
		e.missq.RecordMiss(addr, e.now+int64(actualLat))
	}

	// Collision detection: the youngest older overlapping store whose data
	// is not complete at dispatch forces the paper's collision penalty.
	matchID, matchPos := int64(-1), -1
	for id := r.lastStore[idx]; id >= e.mob.first; id-- {
		pos := e.mobGet(id)
		if overlap(e.mob.addr[pos], int(e.mob.size[pos]), addr, size) {
			matchID, matchPos = id, pos
			break
		}
	}
	if matchPos >= 0 && e.mob.flags[matchPos]&mStdExec == 0 {
		// Ordering violation: the matching store's data has not even been
		// scheduled. The load is parked until the STD executes; detection of
		// the violation then costs a recovery bubble and replay bandwidth.
		r.flags[idx] |= fCollided
		e.stats.Collisions++
		r.waitStore[idx] = matchID
		e.pendingColl = append(e.pendingColl, idx)
		return
	}
	r.flags[idx] |= fDone
	done := cacheDone
	if matchPos >= 0 && e.mob.stdExecCyc[matchPos] >= e.now {
		// The data is in flight with a known completion time: plain
		// store-to-load forwarding, one extra cycle, no penalty.
		if fwd := e.mob.stdExecCyc[matchPos] + 1; fwd > done {
			done = fwd
		}
	}
	// doneCycle is final only after the forwarding adjustment above; the
	// collided path returns early and wakes from finishCollidedLoad instead.
	r.doneCycle[idx] = done
	e.wakeDependents(idx)
}
