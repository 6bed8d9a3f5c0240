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

// New builds a generator for the profile. It panics on a profile whose
// address regions can pass 2^32: uops carry IA-32-width addresses, and such
// a profile is a programming error, as a bad machine configuration is to
// ooo.NewEngine.
func New(p Profile) *Generator {
	p = p.withDefaults()
	if err := p.checkAddressSpace(1 << 32); err != nil {
		panic(err)
	}
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
	var u uop.UOp
	g.nextInto(&u)
	return u
}

// nextInto writes the next dynamic uop into *u, overwriting every field. A
// recording fills its chunk slots through it: returning the uop by value
// through every generation step measured slower than writing it in place.
func (g *Generator) nextInto(u *uop.UOp) {
	for {
		if len(g.stack) == 0 {
			g.pushTopLevel()
		}
		if g.step(g.stack[len(g.stack)-1], u) {
			return
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

// step advances one frame's program counter, possibly emitting a uop into
// *u. It returns false when it performed a control action (push/pop)
// instead.
func (g *Generator) step(f *frameState, u *uop.UOp) bool {
	switch f.stage {
	case stPrologue:
		if f.idx < len(f.fn.prologue) {
			g.materialize(&f.fn.prologue[f.idx], f, u)
			f.idx++
			return true
		}
		f.stage, f.idx = stBody, 0
		if len(f.fn.body) == 0 {
			f.stage = stEpilogue
		}
		return false

	case stBody:
		blk := &f.fn.body[f.blockIdx]
		if f.idx < len(blk.uops) {
			g.materialize(&blk.uops[f.idx], f, u)
			f.idx++
			return true
		}
		if blk.call != nil && !f.callDone {
			callee := g.prog.funcs[blk.call.callee]
			if len(g.stack) >= g.prog.prof.MaxCallDepth {
				f.callDone = true // depth limit: elide the call entirely
				return false
			}
			if f.callIdx < len(blk.call.paramStores) {
				su := &blk.call.paramStores[f.callIdx]
				g.materializeParamStore(su, f, callee, u)
				f.callIdx++
				return true
			}
			if !f.inCall {
				// Emit the transfer and enter the callee.
				g.materialize(&blk.call.transfer, f, u)
				f.inCall = true
				g.push(callee, f.sp)
				return true
			}
			// The callee returned (pop brought us back here).
			f.inCall, f.callDone = false, true
			return false
		}
		// Block branch, then advance the loop.
		g.materializeBranch(&blk.branch, f, u)
		f.idx, f.callIdx, f.callDone = 0, 0, false
		if f.blockIdx+1 < len(f.fn.body) {
			f.blockIdx++
		} else if f.iter+1 < f.iters {
			f.iter++
			f.blockIdx = 0
		} else {
			f.stage, f.idx = stEpilogue, 0
		}
		return true

	default: // stEpilogue
		if f.idx < len(f.fn.epilogue) {
			g.materialize(&f.fn.epilogue[f.idx], f, u)
			f.idx++
			return true
		}
		g.stack = g.stack[:len(g.stack)-1]
		return false
	}
}

// materialize turns a static uop into a dynamic one in *u, synthesizing
// its address. Store halves carry no id: a store's id is its rank among
// the stream's STAs.
func (g *Generator) materialize(su *staticUOp, f *frameState, u *uop.UOp) {
	*u = uop.UOp{
		IP:   uint32(su.ip),
		Kind: su.kind,
		Dst:  su.dst,
		Src1: su.src1,
		Src2: su.src2,
		Size: wordSize,
	}
	switch su.kind {
	case uop.Load, uop.STA:
		u.Addr = uint32(g.address(su, f))
	case uop.Branch:
		u.Taken = true // call/return transfers; conditionals use materializeBranch
	}
}

// materializeParamStore emits an outgoing-parameter store half; its address
// lies in the callee's (not yet pushed) frame.
func (g *Generator) materializeParamStore(su *staticUOp, f *frameState, callee *function, u *uop.UOp) {
	g.materialize(su, f, u)
	if su.kind == uop.STA {
		calleeSP := f.sp - uint64(callee.frameSize)
		u.Addr = uint32(calleeSP + uint64(su.off))
	}
}

// materializeBranch resolves a conditional branch's direction and models the
// front-end predictor to set the Mispredicted flag.
func (g *Generator) materializeBranch(su *staticUOp, f *frameState, u *uop.UOp) {
	*u = uop.UOp{IP: uint32(su.ip), Kind: uop.Branch, Src1: su.src1}
	if su.loopBranch {
		u.Taken = f.iter+1 < f.iters
	} else {
		u.Taken = g.rng.Float64() < su.takenBias
	}
	pred := g.bpred.Predict(su.ip)
	u.Mispredicted = pred.Taken != u.Taken
	g.bpred.Update(su.ip, u.Taken)
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
		g.nextInto(&out[i])
	}
	return out
}
