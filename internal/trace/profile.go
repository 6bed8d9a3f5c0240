// Package trace synthesizes dynamic uop streams that stand in for the
// proprietary IA-32 traces of the paper (§3: SpecInt95, SpecFP95, SysmarkNT,
// Sysmark95, Games, Java, TPC; 30M instructions each).
//
// The generator builds a synthetic static program — functions with
// prologue/epilogue register save/restore, loop bodies, call sites that pass
// parameters through the stack, global scalars, streaming arrays and
// pointer-chased heaps — and then walks it, emitting uops. Because the
// program is static, every dynamic load recurs at a fixed instruction
// pointer with a characteristic behavior, which is precisely the property
// the paper's history-based predictors (collision history tables, hit-miss
// predictors, bank predictors) exploit. Collisions, cache misses and bank
// accesses are not labeled; they emerge from the generated address streams
// when the simulator replays them.
package trace

import "fmt"

// Profile parameterizes one synthetic workload. The preset profiles in
// groups.go are calibrated so that the distributions the paper reports
// (≈10% colliding loads, >95% L1 hits, FP most predictable, "Other" least)
// hold on the default machine.
type Profile struct {
	// Name labels the trace.
	Name string
	// Seed drives all randomness; equal profiles generate identical traces.
	Seed int64

	// NumFuncs is the number of synthetic functions in the program.
	NumFuncs int
	// MeanBlockLen is the mean number of non-memory uops per basic block.
	MeanBlockLen int
	// MeanLoopIters is the mean loop trip count of a function body.
	MeanLoopIters int
	// MaxCallDepth bounds the synthetic call stack.
	MaxCallDepth int
	// CallFrac is the probability that a body block contains a call site.
	CallFrac float64
	// MeanParams is the mean number of stack-passed parameters per call;
	// caller stores and callee loads of these are the paper's "push/load
	// parameter pairs", the dominant source of colliding loads.
	MeanParams int
	// MeanSaves is the mean number of register save/restore pairs per
	// function (prologue stores, epilogue loads). Restores collide only when
	// the function body fits in the scheduling window, which produces the
	// window-size dependence of Figure 6.
	MeanSaves int
	// LocalVarFrac is the probability that a block stores a local variable a
	// nearby block reloads (short-distance store→load pairs).
	LocalVarFrac float64
	// SlowStoreFrac is the probability that a store's data (STD) source is a
	// recently computed, still in-flight value rather than a long-ready
	// register. Stores with slow data are unresolved when nearby loads
	// schedule, so this knob directly controls the colliding-load fraction
	// (≈10% of loads in the paper).
	SlowStoreFrac float64
	// SlowAddrFrac is the probability that a body store's address (STA)
	// source is still in flight (pointer arithmetic rather than an
	// sp-relative slot). Unresolved STAs are what make loads *conflicting*
	// (≈60-70%% of loads in the paper), forcing Traditional scheduling to
	// hold them back.
	SlowAddrFrac float64

	// LoadFrac and StoreFrac set the memory share of body uops. Stores emit
	// an STA+STD pair.
	LoadFrac, StoreFrac float64
	// FPFrac, ComplexFrac, BranchExtraFrac split the non-memory body uops;
	// the rest are single-cycle integer ALU ops. (Each block additionally
	// ends in one branch.)
	FPFrac, ComplexFrac, BranchExtraFrac float64

	// StreamFrac, ChaseFrac, GlobalFrac classify body loads (the remainder
	// are frame/stack loads). Streams are strided array walks; chases are
	// pseudo-random pointer dereferences; globals are a small hot scalar set.
	StreamFrac, ChaseFrac, GlobalFrac float64
	// NumStreams is the number of distinct stream arrays.
	NumStreams int
	// StreamStride is the byte stride of stream walks; one miss every
	// 64/StreamStride accesses once the array exceeds L1.
	StreamStride int
	// StreamWorkingSet is the byte size of each stream array.
	StreamWorkingSet int
	// ChaseWorkingSet is the byte size of the pointer-chased region; the
	// fraction of it that exceeds L1 determines the unpredictable miss rate.
	ChaseWorkingSet int
	// NumGlobals is the number of distinct hot global scalars.
	NumGlobals int

	// BranchTakenBias is the probability a non-loop branch is taken.
	BranchTakenBias float64
	// UopsPerInstr approximates the uop expansion factor (x86 ≈ 1.3); used
	// only to convert instruction budgets to uop budgets.
	UopsPerInstr float64
}

// withDefaults fills zero fields with sane values so hand-built profiles in
// tests stay terse.
func (p Profile) withDefaults() Profile {
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	deff := func(v *float64, d float64) {
		if *v == 0 {
			*v = d
		}
	}
	def(&p.NumFuncs, 24)
	def(&p.MeanBlockLen, 6)
	def(&p.MeanLoopIters, 12)
	def(&p.MaxCallDepth, 4)
	deff(&p.CallFrac, 0.3)
	def(&p.MeanParams, 2)
	def(&p.MeanSaves, 2)
	deff(&p.LocalVarFrac, 0.3)
	deff(&p.SlowStoreFrac, 0.35)
	deff(&p.SlowAddrFrac, 0.5)
	deff(&p.LoadFrac, 0.28)
	deff(&p.StoreFrac, 0.12)
	deff(&p.FPFrac, 0.05)
	deff(&p.ComplexFrac, 0.05)
	deff(&p.StreamFrac, 0.25)
	deff(&p.ChaseFrac, 0.15)
	deff(&p.GlobalFrac, 0.25)
	def(&p.NumStreams, 4)
	def(&p.StreamStride, 8)
	def(&p.StreamWorkingSet, 128<<10)
	def(&p.ChaseWorkingSet, 64<<10)
	def(&p.NumGlobals, 64)
	deff(&p.BranchTakenBias, 0.6)
	deff(&p.UopsPerInstr, 1.3)
	return p
}

// checkAddressSpace reports a profile whose global, stream or chase region
// can reach past limit, the end of the usable address space: 2^32 for the
// IA-32-width addresses uops carry. Each size is compared with the room
// left above its region's base, so no count or negative size can wrap the
// arithmetic.
func (p Profile) checkAddressSpace(limit uint64) error {
	streams := uint64(p.NumStreams)
	switch {
	case uint64(p.NumGlobals) > (limit-globalBase)/wordSize:
		return fmt.Errorf("trace: profile %q: %d globals can pass %#x", p.Name, p.NumGlobals, limit)
	case streams == 0 || streams > (limit-streamBase)/streamSpan ||
		uint64(p.StreamWorkingSet) > limit-streamBase-(streams-1)*streamSpan:
		return fmt.Errorf("trace: profile %q: %d streams of %d bytes can pass %#x",
			p.Name, p.NumStreams, p.StreamWorkingSet, limit)
	case uint64(p.ChaseWorkingSet) > limit-chaseBase:
		return fmt.Errorf("trace: profile %q: a %d-byte chase region can pass %#x",
			p.Name, p.ChaseWorkingSet, limit)
	}
	return nil
}
