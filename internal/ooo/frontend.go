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
// Producer resolution reads the static dependence side-car every Source
// publishes: the trace layer has already answered "who produces this
// register?" as a backward stream-position delta, so rename reduces to a
// watermark compare — a producer delta db is in flight exactly when
// db <= count, and its slot is then robIdx(count-db), because rename and
// retire are both in order, so the last count stream positions occupy the
// ROB densely. No alias tables are maintained at all; rename_diff_test.go
// checks the result against a per-register alias-table reference.
//
// Stores are numbered here too: a store's id is its rank among the
// stream's STAs, so an STA's rename appends the next MOB record, and its
// STD, the next store half, takes the same id.

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
			us, ds, base := e.src.NextBatchRef()
			if len(us) == 0 {
				// Sources are endless by contract; running dry would desync
				// the side-car from the rename count.
				panic("ooo: source ran dry")
			}
			e.fetchRefU, e.fetchRefD = us, ds
			e.fetchPos, e.fetchStoreBase = 0, base
		}
		j := e.fetchPos
		e.fetchPos++
		u := &e.fetchRefU[j]
		e.renameDep(u, &e.fetchRefD[j])
		if u.Kind == uop.Branch && u.Mispredicted {
			// Fetch goes down the wrong path; stall until this branch
			// resolves plus the refill bubble.
			e.stats.BranchMispredicts++
			e.awaitingBranch = true
			return
		}
	}
}

// renameDep allocates and links one uop using its side-car entry. cnt is
// the in-flight population before this uop: in-flight entries occupy window
// positions 0..cnt-1 (head-relative), so a producer db positions back in
// the stream is in flight iff db <= cnt, at slot robIdx(cnt-db) — stream
// distance equals window distance because rename and retire are both in
// order. A saturated delta compares as retired, which is exact under the
// RenamePool bound Config.Validate enforces.
func (e *Engine) renameDep(u *uop.UOp, d *uop.Dep) {
	idx := e.robIdx(e.count)
	cnt := e.count
	e.count++
	r := &e.rob
	r.clearSlot(idx, *u, e.renameAge)
	e.renameAge++
	e.rsCount++

	if db := int(d.Src1Back); db != 0 && db <= cnt {
		p := int32(e.robIdx(cnt - db))
		r.src1Prod[idx], r.src1Age[idx] = p, r.age[p]
	} else {
		r.src1Prod[idx], r.src1Age[idx] = -1, 0
	}
	if db := int(d.Src2Back); db != 0 && db <= cnt {
		p := int32(e.robIdx(cnt - db))
		r.src2Prod[idx], r.src2Age[idx] = p, r.age[p]
	} else {
		r.src2Prod[idx], r.src2Age[idx] = -1, 0
	}
	if u.Kind == uop.Branch && u.Mispredicted {
		r.flags[idx] |= fBlockingBranch
	}

	switch u.Kind {
	case uop.STA:
		e.mobPush(uint64(u.Addr), int32(u.Size))
		r.lastStore[idx] = e.lastStoreID()
	case uop.STD:
		r.lastStore[idx] = e.lastStoreID()
	case uop.Load:
		r.lastStore[idx] = e.fetchStoreBase + int64(d.LastStore)
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
