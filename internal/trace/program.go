package trace

import (
	"math"
	"math/rand"

	"loadsched/internal/uop"
)

// Memory layout of the synthetic address space.
const (
	stackBase  = uint64(0x7fff_0000) // stack grows down from here
	globalBase = uint64(0x0060_0000)
	streamBase = uint64(0x1000_0000)
	streamSpan = uint64(0x0100_0000) // address span reserved per stream
	chaseBase  = uint64(0x4000_0000)
	codeBase   = uint64(0x0040_0000)
	funcSpan   = uint64(0x1000) // code bytes reserved per function
	wordSize   = 8
)

// memClass is the address-stream family of a static memory uop.
type memClass uint8

const (
	mcNone   memClass = iota
	mcFrame           // current stack frame (saves, restores, locals)
	mcParam           // outgoing (stores) / incoming (loads) parameter slots
	mcGlobal          // hot global scalar
	mcStream          // strided array walk
	mcChase           // pseudo-random pointer dereference
)

// staticUOp is one uop of the static program. Dynamic fields (address,
// branch outcome) are synthesized at emission time. Every registered
// recording keeps its generator's program live for the whole process, so
// the fields are ordered and sized to pack the struct into 32 bytes
// (TestStaticUOpLayout pins it).
type staticUOp struct {
	// id numbers the static uop densely in creation order: its template is
	// program.tmpl[id], and its IP is codeBase + 4*id.
	id         uint16
	kind       uop.Kind
	dst        uop.Reg
	src1, src2 uop.Reg
	mem        memClass
	// loopBranch marks the body's back-edge branch.
	loopBranch bool
	// callBranch marks an always-taken call transfer or return; every
	// other Branch is a conditional block branch.
	callBranch bool
	// off is the frame offset (mcFrame/mcParam) or global index (mcGlobal).
	off int32
	// stream is the array id for mcStream.
	stream int32
	// cursor is this static uop's private stream cursor: each stream access
	// site walks its own strided sequence, so its miss pattern (one miss per
	// cache line) is periodic per IP — the behavior local hit-miss history
	// predictors learn.
	cursor int32
	// takenBias is this static branch's probability of being taken. Most
	// static branches are strongly biased (as in real code); a minority are
	// hard data-dependent branches.
	takenBias float64
}

// callSite is a call at the end of a block: parameter stores, then the
// transfer.
type callSite struct {
	callee      int
	paramStores []staticUOp // STA/STD pairs, one per parameter
	transfer    staticUOp
}

// block is a straight-line run of uops ending in a branch, optionally with a
// call site before the branch.
type block struct {
	uops   []staticUOp
	call   *callSite
	branch staticUOp
}

// function is one synthetic function.
type function struct {
	id        int
	frameSize int
	numParams int
	numSaves  int
	meanIters int
	// prologue: incoming-parameter loads then save stores.
	prologue []staticUOp
	body     []block
	// epilogue: restore loads then return branch.
	epilogue []staticUOp
}

// program is the static program a Generator walks.
type program struct {
	prof  Profile
	funcs []*function
	// tmpl holds one template per static uop, indexed by its id: the uop
	// every emission of it starts from, with its IP, op byte and registers
	// set and its address and branch outcome left for the generator. The
	// generator and a recording's decoder both build uops from it, so the
	// static fields have one encoding.
	tmpl []uop.UOp
	// hotWeights biases top-level function selection (80/20-ish reuse).
	hotWeights []float64
	// numStreamCursors is the number of private stream cursors allocated.
	numStreamCursors int
}

// maxStaticUops bounds a program's static uops: a recording stores each
// dynamic uop as its static id in the low idBits of a 16-bit word, beside
// the branch outcome.
const (
	idBits        = 14
	maxStaticUops = 1 << idBits
)

// idAllocator numbers static uops densely in creation order. Functions are
// packed back to back in the code segment (as a linker would lay them
// out), so the id also places the uop's IP: codeBase + 4*id.
type idAllocator struct {
	n int
}

// take returns the next id. Past 2^16 static uops ids wrap; New refuses
// any program of more than maxStaticUops before it emits a uop.
func (a *idAllocator) take() uint16 {
	id := uint16(a.n)
	a.n++
	return id
}

// regAllocator assigns destination registers round-robin inside a function
// and picks sources from recently written registers, creating short
// dependency chains like compiled code.
type regAllocator struct {
	rng    *rand.Rand
	base   uop.Reg
	width  int
	next   int
	recent []uop.Reg
	// slowRecent holds destinations of long-latency producers (loads, FP,
	// complex); sources drawn from it stay in flight long enough to delay
	// store resolution, which is what creates memory ambiguity.
	slowRecent []uop.Reg
}

func newRegAllocator(rng *rand.Rand, fid int) *regAllocator {
	return &regAllocator{
		rng:   rng,
		base:  uop.Reg(8 + (fid%3)*16),
		width: 16,
	}
}

func (r *regAllocator) dest() uop.Reg {
	d := r.base + uop.Reg(r.next%r.width)
	r.next++
	r.recent = append(r.recent, d)
	if len(r.recent) > 8 {
		r.recent = r.recent[1:]
	}
	return d
}

func (r *regAllocator) source() uop.Reg {
	if len(r.recent) == 0 || r.rng.Float64() < 0.2 {
		return r.base + uop.Reg(r.rng.Intn(r.width))
	}
	return r.recent[r.rng.Intn(len(r.recent))]
}

// noteSlow records a long-latency producer's destination.
func (r *regAllocator) noteSlow(d uop.Reg) {
	r.slowRecent = append(r.slowRecent, d)
	if len(r.slowRecent) > 6 {
		r.slowRecent = r.slowRecent[1:]
	}
}

// slowSource prefers a register produced by a load/FP/complex op, so the
// consumer resolves late.
func (r *regAllocator) slowSource() uop.Reg {
	if len(r.slowRecent) > 0 {
		return r.slowRecent[r.rng.Intn(len(r.slowRecent))]
	}
	return r.source()
}

// buildProgram constructs the static program for a profile. All choices are
// driven by the profile's seed, so identical profiles build identical
// programs.
func buildProgram(p Profile) *program {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed))
	prog := &program{prof: p}
	prog.funcs = make([]*function, p.NumFuncs)
	// Build callees first (calls only go to higher ids), so call sites can
	// size their parameter stores to the callee's signature.
	// Functions are packed back to back in the code segment (as a linker
	// would lay them out); 0x1000-aligned spans would make every function's
	// k-th uop alias into the same predictor set regardless of table size.
	ids := &idAllocator{}
	cursors := 0
	for fid := p.NumFuncs - 1; fid >= 0; fid-- {
		prog.funcs[fid] = buildFunction(p, rng, fid, prog.funcs, &cursors, ids)
	}
	prog.numStreamCursors = cursors
	prog.buildTemplates(ids.n)
	// Zipf-ish top-level weights (exponent 0.5): hot functions dominate but
	// the tail still executes, so the dynamic stream exercises enough static
	// loads to pressure small prediction tables (as the paper's IA-32 traces
	// do in Figure 9).
	prog.hotWeights = make([]float64, p.NumFuncs)
	for i := range prog.hotWeights {
		prog.hotWeights[i] = 1.0 / math.Sqrt(float64(i+1))
	}
	return prog
}

// buildTemplates fills tmpl with the template of each of the program's n
// static uops. (Past 2^16 wrapped ids share entries; New refuses such a
// program by its length.)
func (prog *program) buildTemplates(n int) {
	prog.tmpl = make([]uop.UOp, n)
	set := func(sus []staticUOp) {
		for i := range sus {
			prog.tmpl[sus[i].id] = sus[i].template()
		}
	}
	for _, f := range prog.funcs {
		set(f.prologue)
		for b := range f.body {
			blk := &f.body[b]
			set(blk.uops)
			if blk.call != nil {
				set(blk.call.paramStores)
				set([]staticUOp{blk.call.transfer})
			}
			set([]staticUOp{blk.branch})
		}
		set(f.epilogue)
	}
}

// template returns the uop every emission of su starts from. Memory uops
// and everything but a conditional branch access a word; calls and returns
// are always taken. A conditional branch reads only Src1, and its outcome
// is resolved per emission.
func (su *staticUOp) template() uop.UOp {
	ip := uint32(codeBase) + 4*uint32(su.id)
	if su.kind == uop.Branch && !su.callBranch {
		return uop.UOp{IP: ip, Op: uop.NewOp(uop.Branch, 0), Src1: su.src1}
	}
	op := uop.NewOp(su.kind, wordSize)
	if su.kind == uop.Branch {
		op = op.WithBranch(true, false)
	}
	return uop.UOp{IP: ip, Op: op, Dst: su.dst, Src1: su.src1, Src2: su.src2}
}

// meanDraw returns a positive integer near mean (uniform in [1, 2*mean-1]).
func meanDraw(rng *rand.Rand, mean int) int {
	if mean <= 1 {
		return 1
	}
	return 1 + rng.Intn(2*mean-1)
}

func buildFunction(p Profile, rng *rand.Rand, fid int, funcs []*function, cursors *int, ids *idAllocator) *function {
	regs := newRegAllocator(rng, fid)
	f := &function{
		id:        fid,
		numParams: rng.Intn(p.MeanParams*2 + 1),
		numSaves:  rng.Intn(p.MeanSaves*2 + 1),
		meanIters: meanDraw(rng, p.MeanLoopIters),
	}
	// Leaf functions (high ids) are shorter: they model the small callees
	// whose save/restore pairs actually collide.
	leafness := float64(fid) / float64(p.NumFuncs)
	nBlocks := 1 + rng.Intn(3)
	if leafness > 0.6 {
		nBlocks = 1
		f.meanIters = 1 + rng.Intn(3)
	}
	// Frame: saves + locals + incoming params.
	numLocals := 2 + rng.Intn(6)
	f.frameSize = (f.numSaves + numLocals + f.numParams + 2) * wordSize

	// Prologue: load incoming params (they sit at the top of the frame),
	// then save registers below them.
	for j := 0; j < f.numParams; j++ {
		f.prologue = append(f.prologue, staticUOp{
			id: ids.take(), kind: uop.Load, dst: regs.dest(),
			mem: mcParam, off: f.paramOffset(j),
		})
	}
	for s := 0; s < f.numSaves; s++ {
		// Saved registers hold caller values that are long ready, so the
		// save stores resolve immediately.
		off := f.saveOffset(s)
		f.prologue = append(f.prologue,
			staticUOp{id: ids.take(), kind: uop.STA, mem: mcFrame, off: off},
			staticUOp{id: ids.take(), kind: uop.STD, mem: mcFrame, off: off},
		)
	}

	// Body blocks.
	localSlots := make([]int32, 0, numLocals)
	for l := 0; l < numLocals; l++ {
		localSlots = append(localSlots, int32((f.numSaves+l)*wordSize))
	}
	for b := 0; b < nBlocks; b++ {
		f.body = append(f.body, buildBlock(p, rng, f, ids, regs, localSlots, b == nBlocks-1, leafness, funcs, cursors))
	}

	// Epilogue: restore loads mirror the prologue saves, then return.
	for s := 0; s < f.numSaves; s++ {
		f.epilogue = append(f.epilogue, staticUOp{
			id: ids.take(), kind: uop.Load, dst: regs.dest(),
			mem: mcFrame, off: f.saveOffset(s),
		})
	}
	f.epilogue = append(f.epilogue, staticUOp{
		id: ids.take(), kind: uop.Branch, callBranch: true,
	})
	return f
}

// saveOffset is the frame offset of save/restore slot s.
func (f *function) saveOffset(s int) int32 { return int32(s * wordSize) }

// padOffset is a frame slot no store ever writes (the frame's "+2" pad
// words): loads of it can conflict with unresolved stores but never collide.
func (f *function) padOffset(k int) int32 {
	return int32(f.frameSize - (f.numParams+1+k+1)*wordSize)
}

// paramOffset is the frame offset of incoming parameter j (top of frame).
func (f *function) paramOffset(j int) int32 { return int32(f.frameSize - (j+1)*wordSize) }

func buildBlock(p Profile, rng *rand.Rand, f *function, ids *idAllocator, regs *regAllocator, localSlots []int32, last bool, leafness float64, funcs []*function, cursors *int) block {
	var blk block
	n := meanDraw(rng, p.MeanBlockLen)
	// Recent local-variable stores this block can pair a reload with.
	for i := 0; i < n; i++ {
		r := rng.Float64()
		switch {
		case r < p.LoadFrac:
			blk.uops = append(blk.uops, buildLoad(p, rng, f, ids, regs, localSlots, cursors))
		case r < p.LoadFrac+p.StoreFrac:
			off := localSlots[rng.Intn(len(localSlots))]
			mem, st := memClass(mcFrame), int32(0)
			cr := rng.Float64()
			switch {
			case cr < 0.15:
				mem, off = mcGlobal, int32(rng.Intn(p.NumGlobals))
			case cr < 0.3:
				mem, st = mcStream, int32(rng.Intn(p.NumStreams))
			}
			cursor := int32(0)
			if mem == mcStream {
				cursor = int32(*cursors)
				*cursors++
			}
			var staSrc, stdSrc uop.Reg
			if rng.Float64() < p.SlowAddrFrac {
				staSrc = regs.slowSource() // pointer-computed address
			}
			if rng.Float64() < p.SlowStoreFrac {
				stdSrc = regs.slowSource() // a just-computed local value
			}
			blk.uops = append(blk.uops,
				staticUOp{id: ids.take(), kind: uop.STA, mem: mem, off: off, stream: st, cursor: cursor, src1: staSrc},
				staticUOp{id: ids.take(), kind: uop.STD, mem: mem, off: off, stream: st, cursor: cursor, src1: stdSrc},
			)
		case r < p.LoadFrac+p.StoreFrac+p.FPFrac:
			d := regs.dest()
			regs.noteSlow(d)
			blk.uops = append(blk.uops, staticUOp{
				id: ids.take(), kind: uop.FPU, dst: d, src1: regs.source(), src2: regs.source(),
			})
		case r < p.LoadFrac+p.StoreFrac+p.FPFrac+p.ComplexFrac:
			d := regs.dest()
			regs.noteSlow(d)
			blk.uops = append(blk.uops, staticUOp{
				id: ids.take(), kind: uop.Complex, dst: d, src1: regs.source(), src2: regs.source(),
			})
		default:
			blk.uops = append(blk.uops, staticUOp{
				id: ids.take(), kind: uop.IntALU, dst: regs.dest(), src1: regs.source(), src2: regs.source(),
			})
		}
	}
	// Call site: only to deeper (higher-id) functions, never from the very
	// last function, and more likely in non-leaf code.
	if f.id+1 < p.NumFuncs && rng.Float64() < p.CallFrac*(1.2-leafness) {
		calleeID := f.id + 1 + rng.Intn(p.NumFuncs-f.id-1)
		callee := funcs[calleeID]
		cs := &callSite{callee: calleeID}
		// Parameter stores write the callee's incoming-param slots. The STD
		// data source is a recently produced value, so an in-flight producer
		// (e.g. a load) delays store resolution — the mechanism behind truly
		// colliding parameter loads.
		for j := 0; j < callee.numParams; j++ {
			off := callee.paramOffset(j)
			var src uop.Reg
			if rng.Float64() < p.SlowStoreFrac {
				src = regs.slowSource() // freshly computed argument
			}
			cs.paramStores = append(cs.paramStores,
				staticUOp{id: ids.take(), kind: uop.STA, mem: mcParam, off: off},
				staticUOp{id: ids.take(), kind: uop.STD, mem: mcParam, off: off, src1: src},
			)
		}
		cs.transfer = staticUOp{id: ids.take(), kind: uop.Branch, callBranch: true}
		blk.call = cs
	}
	blk.branch = staticUOp{
		id: ids.take(), kind: uop.Branch, loopBranch: last, src1: regs.source(),
		takenBias: drawBranchBias(p, rng),
	}
	return blk
}

// drawBranchBias assigns a static branch its taken probability: most
// branches are strongly biased one way (easily predicted), a minority are
// hard data-dependent branches near 50/50.
func drawBranchBias(p Profile, rng *rand.Rand) float64 {
	if rng.Float64() < 0.06 {
		return 0.25 + 0.5*rng.Float64() // hard data-dependent branch
	}
	if rng.Float64() < p.BranchTakenBias {
		return 0.985
	}
	return 0.015
}

func buildLoad(p Profile, rng *rand.Rand, f *function, ids *idAllocator, regs *regAllocator, localSlots []int32, cursors *int) staticUOp {
	d := regs.dest()
	regs.noteSlow(d)
	u := staticUOp{id: ids.take(), kind: uop.Load, dst: d, src1: regs.source()}
	r := rng.Float64()
	switch {
	case r < p.StreamFrac:
		u.mem, u.stream = mcStream, int32(rng.Intn(p.NumStreams))
		u.cursor = int32(*cursors)
		*cursors++
	case r < p.StreamFrac+p.ChaseFrac:
		u.mem = mcChase
	case r < p.StreamFrac+p.ChaseFrac+p.GlobalFrac:
		u.mem, u.off = mcGlobal, int32(rng.Intn(p.NumGlobals))
	default:
		// Frame load: with probability LocalVarFrac it reloads a
		// local-variable slot nearby stores write (a potential collision);
		// otherwise it reads a never-stored pad slot — ambiguous against
		// unresolved STAs but never actually colliding.
		u.mem = mcFrame
		if rng.Float64() < p.LocalVarFrac {
			u.off = localSlots[rng.Intn(len(localSlots))]
		} else {
			u.off = f.padOffset(rng.Intn(2))
		}
	}
	return u
}
