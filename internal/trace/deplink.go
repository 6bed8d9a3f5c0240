package trace

import "loadsched/internal/uop"

// Static dependence side-car. Which uop produces a source register, and
// which store is the youngest one older than a load, are properties of the
// uop stream alone — no machine configuration changes them. Yet every
// engine in a sweep would re-derive them per uop through private alias
// tables and MOB bookkeeping. The side-car hoists that analysis to the
// trace layer: one depAnalyzer pass per chunk — as a recording produces
// the chunk, or as a file reader decodes it — yields a []uop.Dep that every
// engine replaying the chunk consumes by plain indexing (see internal/ooo
// frontend.go for the consumer contract).
//
// Producer references are backward stream-position deltas, so they do
// not depend on where in the stream the chunk sits, or on how often a file
// replay has wrapped. Store references are deltas against a per-batch
// store count, so they fit a uint16 even though the count grows without
// bound.

// depSize is the in-memory footprint of one side-car entry, used for the
// bytes/uop accounting surfaced by `trace info` and Recording.SidecarBytes.
const depSize = int64(6)

// depAnalyzer derives the side-car in one forward pass. It carries across
// chunk boundaries: lastWrite, pos and stores persist for the whole stream
// (and, in file replay, across wraps — producers can reach back through a
// wrap exactly as they would in a register renamer), while stores is
// snapshot per batch to form each batch's delta base.
type depAnalyzer struct {
	// pos is the stream position of the next uop to observe.
	pos int64
	// lastWrite[r] is 1 + the position of the youngest writer of register
	// r, 0 if none yet. The +1 bias makes the zero value "no producer",
	// and slot 0 (NoReg) is never written, so NoReg sources resolve to
	// delta 0 with no special case.
	lastWrite [uop.MaxArchRegs]int64
	// stores counts the STAs observed so far: the id of the youngest store,
	// since a store's id is its rank among the stream's STAs — the count
	// the engine keeps at rename. Wraps never reset it.
	stores int64
}

// observe advances the analyzer past u without emitting a Dep — used to
// replay a stream prefix (private tail cursors) purely for its carry state.
func (a *depAnalyzer) observe(u *uop.UOp) {
	if u.Dst != uop.NoReg {
		a.lastWrite[u.Dst] = a.pos + 1
	}
	if u.Kind == uop.STA {
		a.stores++
	}
	a.pos++
}

// backRef returns the producer delta for source register r as seen from
// the current position: 0 for no producer, else the saturated distance to
// its youngest prior writer.
func (a *depAnalyzer) backRef(r uop.Reg) uint16 {
	lw := a.lastWrite[r]
	if lw == 0 {
		return 0
	}
	if d := a.pos - lw + 1; d < uop.DepSaturated {
		return uint16(d)
	}
	return uop.DepSaturated
}

// buildInto fills dst[:len(us)] with the side-car for us, advancing the
// analyzer past every uop, and returns the batch's store base: the number
// of STAs before it, which LastStore deltas are relative to. A batch of at
// most ChunkUops uops holds at most that many STAs, so a delta always fits.
func (a *depAnalyzer) buildInto(dst []uop.Dep, us []uop.UOp) int64 {
	base := a.stores
	for i := range us {
		u := &us[i]
		d := &dst[i]
		d.Src1Back = a.backRef(u.Src1)
		d.Src2Back = a.backRef(u.Src2)
		d.LastStore = uint16(a.stores - base)
		a.observe(u)
	}
	return base
}

// Batches adapts a scalar Source to the engine's batch seam: each
// NextBatchRef fills one recycled buffer with the next ChunkUops uops and
// their side-car the way a shared recording produces a chunk, so a
// generator or a hand-built stream renames exactly like a recording. The
// returned slices stay valid until the next call.
// Not safe for concurrent use.
type Batches struct {
	src  Source
	us   []uop.UOp
	deps []uop.Dep
	an   depAnalyzer
}

// NewBatches wraps src, whose next uop is taken as stream position 0.
func NewBatches(src Source) *Batches {
	return &Batches{src: src, us: make([]uop.UOp, ChunkUops), deps: make([]uop.Dep, ChunkUops)}
}

// NextBatchRef returns the next ChunkUops uops with their side-car and the
// store base the batch's Dep.LastStore deltas are relative to.
func (b *Batches) NextBatchRef() ([]uop.UOp, []uop.Dep, int64) {
	for i := range b.us {
		b.us[i] = b.src.Next()
	}
	return b.us, b.deps, b.an.buildInto(b.deps, b.us)
}
