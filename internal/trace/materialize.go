package trace

import (
	"sync"
	"sync/atomic"

	"loadsched/internal/uop"
)

// Shared trace materialization. Every experiment sweep replays the same
// deterministic uop stream through many machine configurations, and the
// naive approach pays one full generator run (program build, RNG walk,
// branch-predictor model) per configuration. Materialize records each
// profile's stream once per process; Replay hands out lightweight cursors
// over it, so N configs per figure pay one generation instead of N.
//
// The recording is stored as sealed packed chunks (see packed.go), about
// 9 bytes/uop instead of the 40 bytes/uop a []uop.UOp costs. Cursors never
// read the packed form directly: each chunk is decoded once, on first
// demand, into an immutable ChunkView — a flat uop slice — that every
// cursor replays by plain indexing. The decoded views are a cache bounded
// by the same cap as the packed chunks, so steady-state replay touches no
// allocator at all.
//
// Concurrency model, per-chunk: the chunk list only ever grows, and sealed
// chunks are immutable. The generator appends whole chunks under
// Recording.mu and publishes the extended list through an atomic snapshot;
// readers walk their own snapshot lock-free and take the lock only to
// generate a chunk that does not exist yet. Decoded views publish by
// compare-and-swap into a fixed slot array — racing decoders do redundant
// work, but exactly one view wins and the losers adopt it, so a view, once
// observed, is permanent and immutable.

// maxSharedUops bounds the per-profile recording (a variable so tests can
// shrink it). At the default 1<<20 the packed chunks top out around 9 MB
// and the decoded views around 40 MB; a cursor that runs past the cap
// falls back to a private generator feeding a recycled private chunk view
// — paying one status-quo generation for that outlier run instead of
// growing the shared buffers without bound.
var maxSharedUops = 1 << 20

var (
	recordingsMu sync.Mutex
	recordings   = map[Profile]*Recording{}
)

// Recording is one profile's process-wide recorded uop stream.
type Recording struct {
	prof Profile
	// maxChunks is the recording's chunk cap, frozen at Materialize time
	// (so tests that shrink maxSharedUops only affect recordings they
	// create): floor(maxSharedUops/ChunkUops), at least 1.
	maxChunks int

	mu     sync.Mutex
	gen    *Generator
	sealed []*packedChunk // generated so far; guarded by mu
	// depGen shadows gen: it observes every generated uop so that carries
	// holds, for each chunk, the analyzer state at that chunk's start —
	// the carry a lazy side-car build resumes from. Both guarded by mu.
	depGen  depAnalyzer
	carries []depAnalyzer // analyzer snapshot at each chunk's start

	chunks  atomic.Value                // []*packedChunk: published prefix of sealed
	views   []atomic.Pointer[ChunkView] // decoded-chunk cache, one slot per chunk
	deps    []atomic.Pointer[DepChunk]  // side-car cache, one slot per chunk
	packed  atomic.Int64                // total payload bytes across sealed chunks
	sidecar atomic.Int64                // total side-car bytes across built DepChunks
}

// Materialize returns the process-wide recording for p, creating it (empty)
// on first use. Equal profiles — after defaulting, matching the runner's
// memo-cache key semantics — share one recording.
func Materialize(p Profile) *Recording {
	p = p.withDefaults()
	recordingsMu.Lock()
	defer recordingsMu.Unlock()
	if r, ok := recordings[p]; ok {
		return r
	}
	mc := maxSharedUops / ChunkUops
	if mc < 1 {
		mc = 1
	}
	r := &Recording{prof: p, maxChunks: mc, gen: New(p)}
	r.chunks.Store([]*packedChunk(nil))
	r.views = make([]atomic.Pointer[ChunkView], mc)
	r.deps = make([]atomic.Pointer[DepChunk], mc)
	r.carries = make([]depAnalyzer, mc)
	recordings[p] = r
	return r
}

// chunk returns sealed chunk ci (ci < maxChunks), generating up to it if
// needed. One lock round generates a whole chunk, so racing cursors on a
// cold recording amortize the lock over ChunkUops uops.
func (r *Recording) chunk(ci int) *packedChunk {
	if cs := r.chunks.Load().([]*packedChunk); ci < len(cs) {
		return cs[ci]
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cs := r.sealed
	for len(cs) <= ci {
		var e chunkEncoder
		e.begin()
		r.carries[len(cs)] = r.depGen
		for i := 0; i < ChunkUops; i++ {
			u := r.gen.Next()
			e.add(u)
			r.depGen.observe(&u)
		}
		c := e.seal()
		r.packed.Add(int64(c.packedBytes()))
		cs = append(cs, c)
	}
	r.sealed = cs
	r.chunks.Store(cs[:len(cs):len(cs)])
	return cs[ci]
}

// view returns the decoded form of chunk ci, decoding and publishing it on
// first demand. Published views are immutable and live for the process —
// the cache is bounded by maxChunks, and permanence is what keeps the
// replay hot path allocation-free.
func (r *Recording) view(ci int) *ChunkView {
	if v := r.views[ci].Load(); v != nil {
		return v
	}
	v, err := r.chunk(ci).decodeChunk()
	if err != nil {
		// Sealed chunks came out of our own encoder; a decode failure is a
		// codec bug, not an input condition.
		panic("trace: recorded chunk failed to decode: " + err.Error())
	}
	if r.views[ci].CompareAndSwap(nil, v) {
		return v
	}
	return r.views[ci].Load()
}

// dep returns the dependence side-car for chunk ci, building and publishing
// it on first demand. Like views, published side-cars are immutable and
// permanent: recordings are append-only, so a chunk's dependence links can
// never be invalidated. Racing builders do redundant work; one wins the CAS
// and the losers adopt its result.
func (r *Recording) dep(ci int) *DepChunk {
	if d := r.deps[ci].Load(); d != nil {
		return d
	}
	v := r.view(ci) // ensures the chunk exists, so carries[ci] is written
	r.mu.Lock()
	an := r.carries[ci]
	r.mu.Unlock()
	d := &DepChunk{Deps: make([]uop.Dep, len(v.us))}
	d.BaseStore = an.buildInto(d.Deps, v.us)
	if r.deps[ci].CompareAndSwap(nil, d) {
		r.sidecar.Add(int64(len(d.Deps)) * depSize)
		return d
	}
	return r.deps[ci].Load()
}

// Len reports how many uops have been recorded so far. Shared chunks are
// always full, so the length is a whole number of chunks.
func (r *Recording) Len() int {
	return len(r.chunks.Load().([]*packedChunk)) * ChunkUops
}

// PackedBytes reports the recording's payload footprint in bytes — the
// packed columns and delta streams, excluding the decoded-view cache.
func (r *Recording) PackedBytes() int64 { return r.packed.Load() }

// SidecarBytes reports the footprint of the dependence side-cars built so
// far (12 bytes per uop per built chunk).
func (r *Recording) SidecarBytes() int64 { return r.sidecar.Load() }

// Cursor replays a recording from the start. It implements the engine's
// Source (NextBatchRef) as well as the scalar trace Source. Cursors are
// cheap — one small allocation, no generation state — and independent; a
// cursor is not safe for concurrent use by multiple goroutines, but any
// number of cursors may run concurrently over one recording.
type Cursor struct {
	rec *Recording
	// us is the current decoded chunk's uop slice, held directly (not via
	// the view) so Next is an index, an increment and one length check —
	// nil before the first advance, which a fresh cursor trips exactly like
	// a chunk boundary.
	us   []uop.UOp
	base int // stream position of us[0]
	i    int // next index within us
	// deps mirrors us entry for entry with the chunk's dependence
	// side-car; depBase is the store base its LastStore deltas are
	// relative to (-1: invalid, consumers fall back). Wired on every
	// advance — shared chunks adopt the CAS-published DepChunk, the tail
	// takes the adapter's recycled buffers.
	deps    []uop.Dep
	depBase int64
	// tail streams the portion beyond the sharing cap from a private
	// generator through the batch adapter; nil until the cap is crossed.
	tail *Batches
}

// Replay returns a cursor over p's shared recording.
func Replay(p Profile) *Cursor {
	return &Cursor{rec: Materialize(p)}
}

// Next emits the next uop of the recorded stream; like Generator.Next it
// never ends.
func (c *Cursor) Next() uop.UOp {
	if c.i == len(c.us) {
		c.advance()
	}
	u := c.us[c.i]
	c.i++
	return u
}

// NextBatchRef returns the remainder of the current decoded chunk as direct
// views — the uops, their side-car entries in lockstep, and the store base
// the batch's Dep.LastStore deltas are relative to — consuming it all. The
// slices stay valid until the next call on this cursor and must be treated
// as read-only: shared recording chunks back them for every consumer at
// once. This is the engine fetch path's refill seam (ooo.Source).
func (c *Cursor) NextBatchRef() ([]uop.UOp, []uop.Dep, int64) {
	if c.i == len(c.us) {
		c.advance()
	}
	us, deps := c.us[c.i:], c.deps[c.i:]
	c.i = len(c.us)
	return us, deps, c.depBase
}

// advance moves the cursor onto the decoded view holding its next stream
// position, base+i. Views are whole chunks, so that position is
// chunk-aligned here.
func (c *Cursor) advance() {
	pos := c.base + c.i
	c.base, c.i = pos, 0
	if ci := pos >> chunkShift; ci < c.rec.maxChunks {
		c.us = c.rec.view(ci).us
		dc := c.rec.dep(ci)
		c.deps, c.depBase = dc.Deps, dc.BaseStore
		return
	}
	c.advanceTail()
}

// advanceTail serves positions past the sharing cap: regenerate privately,
// skip the shared prefix — one status-quo generation, only for runs long
// enough to blow the cap — replaying it through the adapter's analyzer so
// private side-cars continue seamlessly, then refill the adapter's single
// recycled view chunk by chunk, so the overflow costs O(ChunkUops) memory
// however far it runs.
func (c *Cursor) advanceTail() {
	if c.tail == nil {
		g := New(c.rec.prof)
		c.tail = NewBatches(g)
		for i := 0; i < c.base; i++ {
			u := g.Next()
			c.tail.an.observe(&u)
		}
	}
	c.us, c.deps, c.depBase = c.tail.NextBatchRef()
}
