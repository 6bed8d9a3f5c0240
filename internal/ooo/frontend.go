package ooo

import (
	"loadsched/internal/memdep"
	"loadsched/internal/uop"
)

// Front-end stage: fetch + rename. Renames up to FetchWidth uops per cycle
// in place, straight out of the source's decoded chunk, allocates
// ROB/scheduling-window slots (clearing the slot's parallel-array fields in
// place — no struct copy, no allocation), resolves register producers,
// numbers stores and opens their MOB records, and consults the speculation
// policy for each load's collision prediction. A mispredicted branch stalls
// fetch until the branch resolves plus the refill bubble.
//
// Producer resolution goes through an alias table: for each register,
// the slot and age of its youngest renamed writer. Rename and retire are
// both in order, so the in-flight uops are exactly the last count renamed,
// ages renameAge-count up to renameAge-1, and a writer is in flight exactly
// when its age is at least the window head's. A retired writer's slot may
// since hold a younger uop; the age compare tells them apart without
// touching the slot. rename_diff_test.go checks the result against an
// independent per-register reference that inspects the slots instead.
//
// Stores are numbered here too: a store's id is its rank among the
// stream's STAs, so an STA's rename appends the next MOB record, and its
// STD, the next store half, takes the same id. A load's youngest older
// store is the youngest store renamed before it, so rename stamps loads
// from the same count.

func (e *Engine) fetchRename() {
	if e.awaitingBranch || e.now < e.resumeAt {
		return
	}
	for i := 0; i < e.cfg.FetchWidth; i++ {
		if e.count >= e.rob.size() || e.rsCount >= e.cfg.Window {
			e.stats.RenameStalls++
			e.cycleRenameStalled = true
			return
		}
		if e.fetchPos == len(e.fetchRefU) {
			us, _, _ := e.src.NextBatchRef()
			if len(us) == 0 {
				// Sources are endless by contract.
				panic("ooo: source ran dry")
			}
			e.fetchRefU, e.fetchPos = us, 0
		}
		u := &e.fetchRefU[e.fetchPos]
		e.fetchPos++
		e.rename(u)
		if u.Kind() == uop.Branch && u.Mispredicted() {
			// Fetch goes down the wrong path; stall until this branch
			// resolves plus the refill bubble.
			e.stats.BranchMispredicts++
			e.awaitingBranch = true
			return
		}
	}
}

// rename allocates and links one uop. Each source resolves through the
// alias table to its youngest writer, in flight when its age is at least
// headAge, the age of the oldest in-flight uop; the uop then becomes its
// destination's youngest writer. Sources resolve first, so a uop that
// reads and writes one register links to the older writer.
func (e *Engine) rename(u *uop.UOp) {
	idx := e.robIdx(e.count)
	age := e.renameAge
	headAge := age - int64(e.count)
	e.count++
	r := &e.rob
	r.clearSlot(idx, *u, age)
	e.renameAge++
	e.rsCount++

	if a := &e.alias[u.Src1]; a.age >= headAge {
		r.src1Prod[idx], r.src1Age[idx] = a.slot, a.age
	} else {
		r.src1Prod[idx], r.src1Age[idx] = -1, 0
	}
	if a := &e.alias[u.Src2]; a.age >= headAge {
		r.src2Prod[idx], r.src2Age[idx] = a.slot, a.age
	} else {
		r.src2Prod[idx], r.src2Age[idx] = -1, 0
	}
	if u.Dst != uop.NoReg {
		e.alias[u.Dst] = aliasEntry{slot: int32(idx), age: age}
	}
	if u.Kind() == uop.Branch && u.Mispredicted() {
		r.flags[idx] |= fBlockingBranch
	}

	switch u.Kind() {
	case uop.STA:
		e.mobPush(uint64(u.Addr), int32(u.Size()))
		r.lastStore[idx] = e.lastStoreID()
	case uop.STD:
		r.lastStore[idx] = e.lastStoreID()
	case uop.Load:
		r.lastStore[idx] = e.lastStoreID()
		r.pred[idx] = e.predictCollision(uint64(u.IP))
	}

	e.linkDeps(int32(idx))
}

// predictCollision routes the per-load rename prediction through the
// devirtualized fast path when the built-in policy is active.
func (e *Engine) predictCollision(ip uint64) memdep.Prediction {
	if p := e.defPol; p != nil {
		return p.PredictCollision(ip)
	}
	return e.policy.PredictCollision(ip)
}
