package ooo

import (
	"testing"

	"loadsched/internal/trace"
	"loadsched/internal/uop"
)

// Stage-isolation tests: each pins down one stage-file behavior through the
// engine's observable statistics (plus white-box state where the behavior is
// internal, like MOB occupancy).

// TestFrontEndBranchRefill checks the fetch stage's mispredict handling: a
// mispredicted branch must stop fetch until it resolves plus the refill
// bubble, which the CPI stack surfaces as front-end cycles.
func TestFrontEndBranchRefill(t *testing.T) {
	const branches = 50
	var us []uop.UOp
	for i := 0; i < branches; i++ {
		us = append(us, uop.UOp{IP: 0x400000 + uint32(i%16)*4, Op: uop.NewOp(uop.Branch, 0).WithBranch(false, true)})
	}
	cfg := testConfig()
	e := NewEngine(cfg, newSliceSource(us))
	st := e.Run(branches)
	if st.BranchMispredicts != branches {
		t.Fatalf("BranchMispredicts = %d, want %d", st.BranchMispredicts, branches)
	}
	// Every branch costs at least resolve (LatBranch) + refill cycles of
	// stopped fetch; back-to-back mispredicts serialize completely.
	min := int64(branches * (cfg.LatBranch + cfg.FrontEndRefill))
	if st.Cycles < min {
		t.Fatalf("cycles = %d, want >= %d (mispredicts must serialize fetch)", st.Cycles, min)
	}
	if st.CPI.Frontend == 0 {
		t.Fatalf("CPI.Frontend = 0; refill cycles with an empty window must be attributed to the front end")
	}
}

// TestSchedulerPortUsageResetsPerCycle checks the schedule stage re-arms its
// per-cycle port counters: N independent single-port FPU uops must stream at
// one per cycle, not stall after the first.
func TestSchedulerPortUsageResetsPerCycle(t *testing.T) {
	const n = 400
	var us []uop.UOp
	for i := 0; i < n; i++ {
		us = append(us, uop.UOp{IP: 0x400000 + uint32(i%8)*4, Op: uop.NewOp(uop.FPU, 0), Dst: uop.Reg(1 + i%4)})
	}
	cfg := testConfig()
	cfg.FPUnits = 1
	e := NewEngine(cfg, newSliceSource(us))
	st := e.Run(n)
	if st.Uops < n {
		t.Fatalf("retired %d uops, want >= %d", st.Uops, n)
	}
	// One FPU port serves one uop per cycle; if the usage counter were not
	// reset each cycle the run could not finish anywhere near n cycles.
	if st.Cycles < n {
		t.Fatalf("cycles = %d < %d: more than one uop per cycle through a single port", st.Cycles, n)
	}
	if st.Cycles > n+n/4 {
		t.Fatalf("cycles = %d, want ≈%d: port counter not re-armed per cycle?", st.Cycles, n)
	}
	if st.CPI.PortContention == 0 {
		t.Fatalf("CPI.PortContention = 0; a saturated single port must show up in the stack")
	}
}

// TestMOBPrunedAtRetire checks the memory stage drops fully retired stores:
// a long store-heavy stream must keep the MOB bounded by the in-flight
// window, not grow with the trace.
func TestMOBPrunedAtRetire(t *testing.T) {
	cfg := testConfig()
	e := NewEngine(cfg, trace.NewBatches(&storeStream{}))
	st := e.Run(6000)
	if st.Stores == 0 {
		t.Fatalf("no stores retired")
	}
	if e.mob.first == 0 {
		t.Fatalf("mob.first = 0: retired stores were never pruned")
	}
	// Only in-flight stores may remain; the rename pool bounds those.
	if e.mob.capacity() > cfg.RenamePool {
		t.Fatalf("MOB holds %d records after %d uops, want <= %d in-flight",
			e.mob.capacity(), st.Uops, cfg.RenamePool)
	}
}

// storeStream emits an endless stream of independent stores with filler ALU
// uops.
type storeStream struct {
	seq int64
	id  int64 // stores so far, which spreads their addresses
}

func (s *storeStream) Next() uop.UOp {
	u := uop.UOp{IP: 0x500000 + uint32(s.seq%32)*4}
	switch s.seq % 4 {
	case 0:
		s.id++
		u.Op, u.Addr = uop.NewOp(uop.STA, 8), 0x8000+uint32(s.id%64)*8
	case 1:
		u.Op = uop.NewOp(uop.STD, 0)
	default:
		u.Op, u.Dst = uop.NewOp(uop.IntALU, 0), uop.Reg(2+s.seq%4)
	}
	s.seq++
	return u
}
