package ooo

import (
	"loadsched/internal/cache"
	"loadsched/internal/uop"
)

// Retire stage: drains up to RetireWidth completed uops per cycle from the
// ROB head in program order (reading the flat flag/done-cycle arrays),
// finalizes the figure statistics, prunes the MOB, and feeds every retired
// load back through the speculation policy's training hook.

func (e *Engine) retire() {
	for n := 0; n < e.cfg.RetireWidth && e.count > 0; n++ {
		idx := int32(e.head)
		if e.rob.flags[idx]&fDone == 0 || e.rob.doneCycle[idx] > e.now {
			return
		}
		e.retireEntry(idx)
		e.rob.flags[idx] &^= fValid
		if e.head++; e.head == e.rob.size() {
			e.head = 0
		}
		e.count--
	}
}

func (e *Engine) retireEntry(idx int32) {
	e.stats.Uops++
	e.cycleRetired++
	switch uop.Kind(e.rob.kind[idx]) {
	case uop.Load:
		e.retireLoad(idx)
	case uop.STA:
		e.stats.Stores++
		e.mob.flags[e.mobGet(e.rob.lastStore[idx])] |= mStaRetired
	case uop.STD:
		e.mob.flags[e.mobGet(e.rob.lastStore[idx])] |= mStdRetired
		e.mobPrune()
	case uop.Branch:
		e.stats.Branches++
	}
}

func (e *Engine) retireLoad(idx int32) {
	r := &e.rob
	f := r.flags[idx]
	e.stats.Loads++
	switch r.level[idx] {
	case cache.L1:
		e.stats.L1Hits++
	case cache.L2:
		e.stats.L1Misses++
	default:
		e.stats.L1Misses++
		e.stats.L2Misses++
	}

	// Figure 1 classification bookkeeping.
	c := &e.stats.Class
	c.Loads++
	conflicting := f&fConflicting != 0
	colliding := f&fColliding != 0
	predColl := r.pred[idx].Colliding
	switch {
	case !conflicting:
		c.NotConflicting++
	case colliding && predColl:
		c.ACPC++
	case colliding && !predColl:
		c.ACPNC++
	case !colliding && predColl:
		c.ANCPC++
	default:
		c.ANCPNC++
	}

	// Predictor training: the measurement tally stays engine-side, the
	// predictors themselves learn through the policy seam.
	actualHit := f&fActualHit != 0
	e.stats.HM.Record(actualHit, f&fPredHit != 0)
	ip, addr := uint64(r.u[idx].IP), uint64(r.u[idx].Addr)
	ev := TrainEvent{
		IP: ip, Addr: addr, Now: e.now,
		Colliding: colliding, Distance: int(r.collDist[idx]),
		Hit: actualHit, Level: r.level[idx],
	}
	if p := e.defPol; p != nil {
		p.TrainRetire(ev)
	} else {
		e.policy.TrainRetire(ev)
	}
	if e.cfg.OnLoadRetire != nil {
		e.cfg.OnLoadRetire(LoadEvent{
			IP: r.u[idx].IP, Addr: r.u[idx].Addr,
			Distance: r.collDist[idx], Colliding: colliding,
			Hit: actualHit, Conflicting: conflicting,
		})
	}
}
