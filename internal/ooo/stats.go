package ooo

import (
	"loadsched/internal/hitmiss"
	"loadsched/internal/memdep"
)

// Stats is everything one simulation run measures.
type Stats struct {
	// Cycles is the simulated cycle count over the measured region.
	Cycles int64
	// Uops / Loads / Stores / Branches count retired uops by class (stores
	// count STA+STD pairs once).
	Uops, Loads, Stores, Branches uint64

	// Class is the load-classification tally of Figure 1 (conflicting /
	// colliding × predicted), gathered at schedule time and finalized at
	// retire.
	Class memdep.Classification

	// HM tallies hit-miss prediction outcomes (Figure 10).
	HM hitmiss.Outcomes

	// Collisions counts loads that paid the collision penalty (wrong
	// memory ordering).
	Collisions uint64

	// L1Hits/L1Misses/L2Misses are load data-cache outcomes.
	L1Hits, L1Misses, L2Misses uint64

	// BranchMispredicts counts front-end mispredictions encountered.
	BranchMispredicts uint64

	// RenameStalls counts cycles the front end could not rename a uop for
	// lack of window/pool space.
	RenameStalls uint64

	// BankConflicts / BankMispredicts / BankDuplicates count banked-cache
	// events when banking is enabled.
	BankConflicts, BankMispredicts, BankDuplicates uint64

	// CPI attributes every measured cycle to one stall cause;
	// CPI.Total() == Cycles over the measured region (see cpi.go).
	CPI CPIStack
}

// IPC returns retired uops per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Uops) / float64(s.Cycles)
}

// L1MissRate returns load L1 misses over all loads.
func (s Stats) L1MissRate() float64 {
	if s.Loads == 0 {
		return 0
	}
	return float64(s.L1Misses) / float64(s.Loads)
}

// Speedup returns this run's IPC relative to a baseline run's (the unit of
// Figures 7, 8 and 11).
func (s Stats) Speedup(baseline Stats) float64 {
	b := baseline.IPC()
	if b == 0 {
		return 0
	}
	return s.IPC() / b
}

// Add accumulates another run's stats (used to average trace groups by
// pooling counts).
func (s *Stats) Add(o Stats) {
	s.Cycles += o.Cycles
	s.Uops += o.Uops
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.Branches += o.Branches
	s.Class.Add(o.Class)
	s.HM.Add(o.HM)
	s.Collisions += o.Collisions
	s.L1Hits += o.L1Hits
	s.L1Misses += o.L1Misses
	s.L2Misses += o.L2Misses
	s.BranchMispredicts += o.BranchMispredicts
	s.RenameStalls += o.RenameStalls
	s.BankConflicts += o.BankConflicts
	s.BankMispredicts += o.BankMispredicts
	s.BankDuplicates += o.BankDuplicates
	s.CPI.Add(o.CPI)
}
