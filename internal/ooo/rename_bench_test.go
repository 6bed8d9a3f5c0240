package ooo

import (
	"testing"

	"loadsched/internal/trace"
)

// BenchmarkFetchRename isolates the front-end rename/producer-resolution
// path from the rest of the pipeline: it drives fetchRename directly
// against a shared-recording cursor and, whenever the window fills, drains
// it with a bulk slot flush that preserves the rename-time invariants
// (store watermark, architectural producers) without paying for
// dispatch/execute/retire. One op is a fixed batch of fetch/rename
// cycles, long enough (over 0.1 ms) that even `-benchtime=10x` times the
// steady state rather than timer and cold-cache noise; ns/uop is the
// per-uop cost.
func BenchmarkFetchRename(b *testing.B) {
	prof := trace.Profile{Name: "bench-fetch-rename", Seed: 7}
	b.Run("alias", func(b *testing.B) {
		cfg := DefaultConfig()
		cfg.Window, cfg.RenamePool = 1024, 1024
		e := NewEngine(cfg, trace.Replay(prof))
		// drain empties the window in bulk. Zeroing the count retires the
		// in-flight population as far as rename can observe (the head's age
		// becomes renameAge, which every alias-table writer is younger
		// than), clearing every slot's flags frees the slots, and sliding
		// the MOB ring forward keeps its occupancy where in-order
		// retirement would have left it. The youngest few records stay live so a store
		// split across the drain (STA before, STD after) still finds its
		// ring record.
		drain := func() {
			r := &e.rob
			for i := range r.flags {
				r.flags[i] = 0
				r.waitHead[i] = -1
				r.nwaiting[i] = 0
			}
			e.head, e.count, e.rsCount = 0, 0, 0
			e.readyList = e.readyList[:0]
			e.wakeQ = e.wakeQ[:0]
			if keep := 64; e.mob.length > keep {
				slide := e.mob.length - keep
				e.mob.start = e.mobIdx(slide)
				e.mob.first += int64(slide)
				e.mob.length = keep
			}
			e.pendingColl = e.pendingColl[:0]
		}
		// The measured loop cycles over a fixed prefix of the shared
		// recording: restarting the stream every epoch keeps any
		// iteration count inside the shared (recorded) chunks instead of
		// spilling into private tail generation, which would swamp rename
		// with generator cost.
		resetStream := func() {
			drain()
			e.src = trace.Replay(prof)
			e.fetchRefU, e.fetchPos = nil, 0
			e.mob.first, e.mob.length, e.mob.start = 1, 0, 0
			e.staDoneTo, e.allDoneTo = 1, 1
		}
		const stepsPerEpoch = 32000 // ~192K uops, well inside the cap
		steps := 0
		step := func() {
			steps++
			if steps%stepsPerEpoch == 0 {
				resetStream()
			}
			e.now++
			e.awaitingBranch, e.resumeAt = false, 0
			if e.count+e.cfg.FetchWidth > e.rob.size() {
				drain()
			}
			e.fetchRename()
		}
		// Warm one full epoch (recording + engine steady state) before
		// measuring.
		for i := 0; i < stepsPerEpoch; i++ {
			step()
		}
		const stepsPerOp = 512
		start := e.renameAge
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < stepsPerOp; j++ {
				step()
			}
		}
		b.StopTimer()
		if renamed := e.renameAge - start; renamed > 0 {
			b.ReportMetric(float64(renamed)/float64(b.N), "uops/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(renamed), "ns/uop")
		}
	})
}
