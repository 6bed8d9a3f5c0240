package trace

import (
	"math/rand"

	"loadsched/internal/predict"
	"loadsched/internal/uop"
)

// Generator walks the synthetic static program and emits the dynamic uop
// stream. Generators are deterministic: two generators built from the same
// profile emit identical streams, which lets experiments replay a trace
// through many predictor configurations.
type Generator struct {
	prog *program
	rng  *rand.Rand

	storeSeq int64

	streamPos []uint64
	stack     []*frameState
	topCum    []float64

	// front-end branch predictor model: decides the Mispredicted flag on
	// conditional branches.
	bpred *predict.GShare
}

// frame-stage values.
const (
	stPrologue = iota
	stBody
	stEpilogue
)

type frameState struct {
	fn *function
	sp uint64
	// stage is stPrologue, stBody or stEpilogue.
	stage int
	// idx indexes the prologue/epilogue sequence, or the block uop list.
	idx int
	// blockIdx and iter track the body loop.
	blockIdx, iter, iters int
	// callIdx indexes the pending call's parameter stores; callDone marks
	// that the callee has returned and the block branch is next.
	callIdx  int
	inCall   bool
	callDone bool
}

// New builds a generator for the profile.
func New(p Profile) *Generator {
	p = p.withDefaults()
	prog := buildProgram(p)
	g := &Generator{
		prog:      prog,
		rng:       rand.New(rand.NewSource(p.Seed ^ 0x5eed_d15c)),
		streamPos: make([]uint64, prog.numStreamCursors),
		bpred:     predict.NewGShare(12, 10, 2),
	}
	// Decorrelate the private cursors' starting lines.
	for i := range g.streamPos {
		g.streamPos[i] = uint64(i) * 4096
	}
	g.topCum = make([]float64, len(prog.hotWeights))
	sum := 0.0
	for i, w := range prog.hotWeights {
		sum += w
		g.topCum[i] = sum
	}
	return g
}

// Profile returns the (defaulted) profile the generator runs.
func (g *Generator) Profile() Profile { return g.prog.prof }

// Next emits the next dynamic uop. It never ends; callers bound the length.
func (g *Generator) Next() uop.UOp {
	for {
		if len(g.stack) == 0 {
			g.pushTopLevel()
		}
		f := g.stack[len(g.stack)-1]
		u, ok := g.step(f)
		if ok {
			return u
		}
	}
}

// pushTopLevel starts a new invocation of a hot function at stack depth 0.
func (g *Generator) pushTopLevel() {
	r := g.rng.Float64() * g.topCum[len(g.topCum)-1]
	fid := 0
	for i, c := range g.topCum {
		if r <= c {
			fid = i
			break
		}
	}
	g.push(g.prog.funcs[fid], stackBase)
}

func (g *Generator) push(fn *function, callerSP uint64) {
	// Trip counts are mostly fixed per static loop (their exits are then
	// learnable history patterns, as in real code); a small fraction of
	// invocations run one extra or one fewer iteration.
	iters := fn.meanIters
	switch r := g.rng.Float64(); {
	case r < 0.05 && iters > 1:
		iters--
	case r < 0.10:
		iters++
	}
	g.stack = append(g.stack, &frameState{
		fn:    fn,
		sp:    callerSP - uint64(fn.frameSize),
		iters: iters,
	})
}

// step advances one frame's program counter, possibly emitting a uop. It
// returns ok=false when it performed a control action (push/pop) instead.
func (g *Generator) step(f *frameState) (uop.UOp, bool) {
	switch f.stage {
	case stPrologue:
		if f.idx < len(f.fn.prologue) {
			u := g.materialize(&f.fn.prologue[f.idx], f)
			f.idx++
			return u, true
		}
		f.stage, f.idx = stBody, 0
		if len(f.fn.body) == 0 {
			f.stage = stEpilogue
		}
		return uop.UOp{}, false

	case stBody:
		blk := &f.fn.body[f.blockIdx]
		if f.idx < len(blk.uops) {
			u := g.materialize(&blk.uops[f.idx], f)
			f.idx++
			return u, true
		}
		if blk.call != nil && !f.callDone {
			callee := g.prog.funcs[blk.call.callee]
			if len(g.stack) >= g.prog.prof.MaxCallDepth {
				f.callDone = true // depth limit: elide the call entirely
				return uop.UOp{}, false
			}
			if f.callIdx < len(blk.call.paramStores) {
				su := &blk.call.paramStores[f.callIdx]
				u := g.materializeParamStore(su, f, callee)
				f.callIdx++
				return u, true
			}
			if !f.inCall {
				// Emit the transfer and enter the callee.
				u := g.materialize(&blk.call.transfer, f)
				f.inCall = true
				g.push(callee, f.sp)
				return u, true
			}
			// The callee returned (pop brought us back here).
			f.inCall, f.callDone = false, true
			return uop.UOp{}, false
		}
		// Block branch, then advance the loop.
		u := g.materializeBranch(&blk.branch, f)
		f.idx, f.callIdx, f.callDone = 0, 0, false
		if f.blockIdx+1 < len(f.fn.body) {
			f.blockIdx++
		} else if f.iter+1 < f.iters {
			f.iter++
			f.blockIdx = 0
		} else {
			f.stage, f.idx = stEpilogue, 0
		}
		return u, true

	default: // stEpilogue
		if f.idx < len(f.fn.epilogue) {
			u := g.materialize(&f.fn.epilogue[f.idx], f)
			f.idx++
			return u, true
		}
		g.stack = g.stack[:len(g.stack)-1]
		return uop.UOp{}, false
	}
}

// materialize turns a static uop into a dynamic one, synthesizing addresses
// and store ids.
func (g *Generator) materialize(su *staticUOp, f *frameState) uop.UOp {
	u := uop.UOp{
		IP:   su.ip,
		Kind: su.kind,
		Dst:  su.dst,
		Src1: su.src1,
		Src2: su.src2,
		Size: wordSize,
	}
	switch su.kind {
	case uop.Load, uop.STA:
		u.Addr = g.address(su, f)
	case uop.Branch:
		u.Taken = true // call/return transfers; conditionals use materializeBranch
	}
	if su.kind == uop.STA {
		g.storeSeq++
		u.StoreID = g.storeSeq
	}
	if su.kind == uop.STD {
		u.StoreID = g.storeSeq // the STD immediately follows its STA
	}
	return u
}

// materializeParamStore emits an outgoing-parameter store half; its address
// lies in the callee's (not yet pushed) frame.
func (g *Generator) materializeParamStore(su *staticUOp, f *frameState, callee *function) uop.UOp {
	u := g.materialize(su, f)
	if su.kind == uop.STA {
		calleeSP := f.sp - uint64(callee.frameSize)
		u.Addr = calleeSP + uint64(su.off)
	}
	return u
}

// materializeBranch resolves a conditional branch's direction and models the
// front-end predictor to set the Mispredicted flag.
func (g *Generator) materializeBranch(su *staticUOp, f *frameState) uop.UOp {
	u := uop.UOp{IP: su.ip, Kind: uop.Branch, Src1: su.src1}
	if su.loopBranch {
		u.Taken = f.iter+1 < f.iters
	} else {
		u.Taken = g.rng.Float64() < su.takenBias
	}
	pred := g.bpred.Predict(su.ip)
	u.Mispredicted = pred.Taken != u.Taken
	g.bpred.Update(su.ip, u.Taken)
	return u
}

// address synthesizes the effective address of a memory uop.
func (g *Generator) address(su *staticUOp, f *frameState) uint64 {
	p := &g.prog.prof
	switch su.mem {
	case mcFrame, mcParam:
		return f.sp + uint64(su.off)
	case mcGlobal:
		return globalBase + uint64(su.off)*wordSize
	case mcStream:
		ws := uint64(p.StreamWorkingSet)
		pos := g.streamPos[su.cursor]
		if su.kind == uop.Load {
			g.streamPos[su.cursor] = pos + uint64(p.StreamStride)
		}
		return streamBase + uint64(su.stream)*streamSpan + pos%ws
	case mcChase:
		lines := p.ChaseWorkingSet / 64
		return chaseBase + uint64(g.rng.Intn(lines))*64 + uint64(g.rng.Intn(8))*wordSize
	default:
		return 0
	}
}

// Collect generates the first n uops of a profile's trace.
func Collect(p Profile, n int) []uop.UOp {
	g := New(p)
	out := make([]uop.UOp, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}
