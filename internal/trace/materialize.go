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
// A recording holds each chunk of ChunkUops uops once, in the form every
// replay reads: a flat []uop.UOp (16 bytes/uop) and its dependence
// side-car in lockstep (6 bytes/uop, see deplink.go), 22 bytes a uop in
// all. A chunk is produced in one step — the generator writes each uop in
// place into its chunk slot and the recording's analyzer links them right
// after — and steady-state replay is an index walk that touches no
// allocator.
//
// Concurrency model, per chunk: chunks are produced in stream order under
// Recording.mu and each is published once, immutable, into its own atomic
// slot. Readers load the slot lock-free and take the lock only to produce
// a chunk that does not exist yet; a chunk, once observed, is permanent.

// maxSharedUops bounds the per-profile recording (a variable so tests can
// shrink it). At the default 1<<20 a recording tops out at 16 MiB of uops
// plus 6 MiB of side-car; a cursor that runs past the cap falls back to a
// private generator feeding recycled private buffers — paying one
// status-quo generation for that outlier run instead of growing the shared
// recording without bound.
var maxSharedUops = 1 << 20

var (
	recordingsMu sync.Mutex
	recordings   = map[Profile]*Recording{}
)

// Recording is one profile's process-wide recorded uop stream.
type Recording struct {
	prof Profile
	// maxChunks is the recording's chunk cap, frozen at construction (so
	// tests that shrink maxSharedUops only affect recordings they create):
	// floor(maxSharedUops/ChunkUops), at least 1.
	maxChunks int

	mu   sync.Mutex
	gen  *Generator
	an   depAnalyzer // side-car carry at the end of the recorded prefix; guarded by mu
	made int         // chunks produced so far; guarded by mu

	chunks []atomic.Pointer[recChunk] // one slot per chunk, nil until produced
}

// recChunk is one published chunk: its uops, their side-car entry for
// entry, and the store base the side-car's LastStore deltas are relative
// to. Immutable once published.
type recChunk struct {
	us        []uop.UOp
	deps      []uop.Dep
	storeBase int64
}

// Materialize returns the process-wide recording for p, creating it (empty)
// on first use. Equal profiles — after defaulting, matching the runner's
// memo-cache key semantics — share one recording.
func Materialize(p Profile) *Recording {
	p = p.withDefaults()
	recordingsMu.Lock()
	defer recordingsMu.Unlock()
	r, ok := recordings[p]
	if !ok {
		r = newRecording(p)
		recordings[p] = r
	}
	return r
}

// newRecording builds an empty recording of p without registering it
// process-wide.
func newRecording(p Profile) *Recording {
	mc := max(maxSharedUops/ChunkUops, 1)
	return &Recording{prof: p, maxChunks: mc, gen: New(p), chunks: make([]atomic.Pointer[recChunk], mc)}
}

// chunk returns chunk ci (ci < maxChunks), producing up to it if needed.
// One lock round produces a whole chunk, so racing cursors on a cold
// recording amortize the lock over ChunkUops uops.
func (r *Recording) chunk(ci int) *recChunk {
	if ch := r.chunks[ci].Load(); ch != nil {
		return ch
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for ; r.made <= ci; r.made++ {
		ch := &recChunk{us: make([]uop.UOp, ChunkUops), deps: make([]uop.Dep, ChunkUops)}
		for i := range ch.us {
			r.gen.nextInto(&ch.us[i])
		}
		ch.storeBase = r.an.buildInto(ch.deps, ch.us)
		r.chunks[r.made].Store(ch)
	}
	return r.chunks[ci].Load()
}

// Len reports how many uops have been recorded so far. Chunks are always
// full, so the length is a whole number of chunks.
func (r *Recording) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.made * ChunkUops
}

// PackedBytes reports the recording's packed-payload footprint, which is
// always 0: packed chunks are only the trace-file format, and a recording
// holds each chunk once, flat.
func (r *Recording) PackedBytes() int64 { return 0 }

// SidecarBytes reports the footprint of the recorded side-car: 6 bytes
// per recorded uop.
func (r *Recording) SidecarBytes() int64 { return int64(r.Len()) * depSize }

// Cursor replays a recording from the start. It implements the engine's
// Source (NextBatchRef) as well as the scalar trace Source. Cursors are
// cheap — one small allocation, no generation state — and independent; a
// cursor is not safe for concurrent use by multiple goroutines, but any
// number of cursors may run concurrently over one recording.
type Cursor struct {
	rec *Recording
	// us is the current chunk's uop slice, held directly so Next is an
	// index, an increment and one length check — nil before the first
	// advance, which a fresh cursor trips exactly like a chunk boundary.
	us   []uop.UOp
	base int // stream position of us[0]
	i    int // next index within us
	// deps mirrors us entry for entry with the chunk's dependence
	// side-car; depBase is the store base its LastStore deltas are
	// relative to. Wired on every advance — shared chunks carry their own,
	// the tail takes the adapter's recycled buffers.
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

// NextBatchRef returns the remainder of the current chunk as direct views
// — the uops, their side-car entries in lockstep, and the store base the
// batch's Dep.LastStore deltas are relative to — consuming it all. The
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

// advance moves the cursor onto the chunk holding its next stream
// position, base+i. Chunks are whole, so that position is chunk-aligned
// here.
func (c *Cursor) advance() {
	pos := c.base + c.i
	c.base, c.i = pos, 0
	if ci := pos >> chunkShift; ci < c.rec.maxChunks {
		ch := c.rec.chunk(ci)
		c.us, c.deps, c.depBase = ch.us, ch.deps, ch.storeBase
		return
	}
	c.advanceTail()
}

// advanceTail serves positions past the sharing cap: regenerate privately,
// skip the shared prefix — one status-quo generation, only for runs long
// enough to blow the cap — replaying it through the adapter's analyzer so
// private side-cars continue seamlessly, then refill the adapter's
// recycled buffers chunk by chunk, so the overflow costs O(ChunkUops)
// memory however far it runs.
func (c *Cursor) advanceTail() {
	if c.tail == nil {
		g := New(c.rec.prof)
		c.tail = NewBatches(g)
		var u uop.UOp
		for i := 0; i < c.base; i++ {
			g.nextInto(&u)
			c.tail.an.observe(&u)
		}
	}
	c.us, c.deps, c.depBase = c.tail.NextBatchRef()
}
