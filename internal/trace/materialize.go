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
// A recording stores only what changes from one emission of a static uop
// to the next. Each chunk of ChunkUops uops holds one 16-bit word per uop
// — the static uop's id (below maxStaticUops) with a conditional branch's
// taken and mispredicted bits on top — and the 32-bit address of each load
// and STA, in stream order: about 3.5 bytes a uop, against 12 for the uop
// itself. A cursor decodes a chunk into its own ChunkUops-uop buffer by
// copying each id's template from the static program, setting the branch
// bits and taking the next address where the uop has one, so every
// consumer still reads a plain []uop.UOp. Decoding costs a few ns a uop,
// a small fraction of what the engine spends on it.
//
// Chunk memory is mapped outside the Go heap where the platform allows it
// (chunkmem_mmap.go), one mapping per chunk sized to its content: the
// collector sets its goal at twice the live heap, so recorded bytes on the
// heap would cost their size twice in peak RSS. Registered recordings live
// as long as the process; an unregistered one (newRecording) is released
// explicitly once nothing reads it.
//
// Concurrency model, per chunk: chunks are produced in stream order under
// Recording.mu and each is published once, immutable, into its own atomic
// slot. Readers load the slot lock-free and take the lock only to produce
// a chunk that does not exist yet; a chunk, once observed, is permanent.

// maxSharedUops bounds the per-profile recording (a variable so tests can
// shrink it). At the default 1<<20 a recording tops out near 3.5 MiB; a
// cursor that runs past the cap falls back to a private generator feeding
// its own decode buffer — paying one status-quo generation for that
// outlier run instead of growing the shared recording without bound.
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
	// tmpl is the static program's templates, indexed by static id, that
	// cursors decode chunks from. Immutable.
	tmpl []uop.UOp

	mu    sync.Mutex
	gen   *Generator
	made  int   // chunks produced so far; guarded by mu
	bytes int64 // the produced chunks' id and address bytes; guarded by mu

	chunks []atomic.Pointer[recChunk] // one slot per chunk, nil until produced
}

// Word bits of a recorded uop beside its static id.
const (
	idMask         = maxStaticUops - 1
	idTaken        = 1 << idBits
	idMispredicted = 1 << (idBits + 1)
)

// recChunk is one published chunk: a word per uop (static id and branch
// bits) and the addresses of its loads and STAs in stream order.
// Immutable once published. mem is the mapping ids and addrs live in, nil
// for a chunk on the Go heap.
type recChunk struct {
	ids   []uint16
	addrs []uint32
	mem   []byte
}

// heapChunk returns a zeroed chunk with room for nAddrs addresses on the
// Go heap.
func heapChunk(nAddrs int) *recChunk {
	return &recChunk{ids: make([]uint16, ChunkUops), addrs: make([]uint32, nAddrs)}
}

// size returns the chunk's id and address bytes.
func (ch *recChunk) size() int64 { return int64(2*len(ch.ids) + 4*len(ch.addrs)) }

// decode expands the chunk into dst, which holds ChunkUops uops: each
// word's template with its branch bits set, and the next address for each
// uop that has one.
func (ch *recChunk) decode(dst, tmpl []uop.UOp) {
	ids, addrs := ch.ids, ch.addrs
	dst = dst[:len(ids)]
	j := 0
	for i, w := range ids {
		u := &dst[i]
		*u = tmpl[w&idMask]
		if w > idMask {
			u.Op = u.Op.WithBranch(w&idTaken != 0, w&idMispredicted != 0)
		}
		if u.HasMemAddr() {
			u.Addr = addrs[j]
			j++
		}
	}
}

// chunkScratch is where a recording encodes a chunk before it knows how
// many addresses the chunk holds, and so how large a mapping to make.
// Pooled: only chunk production uses one, under its recording's lock.
type chunkScratch struct {
	ids   [ChunkUops]uint16
	addrs [ChunkUops]uint32
}

var scratchPool = sync.Pool{New: func() any { return new(chunkScratch) }}

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

// RecordingTotals reports the process's registered recordings: how many
// traces they hold, their uops and their chunk bytes (PackedBytes).
func RecordingTotals() (traces int, uops, bytes int64) {
	recordingsMu.Lock()
	defer recordingsMu.Unlock()
	for _, r := range recordings {
		r.mu.Lock()
		uops += int64(r.made) * ChunkUops
		bytes += r.bytes
		r.mu.Unlock()
	}
	return len(recordings), uops, bytes
}

// newRecording builds an empty recording of p without registering it
// process-wide. Its owner calls release once no cursor reads it.
func newRecording(p Profile) *Recording {
	mc := max(maxSharedUops/ChunkUops, 1)
	g := New(p)
	return &Recording{prof: p, maxChunks: mc, tmpl: g.prog.tmpl, gen: g, chunks: make([]atomic.Pointer[recChunk], mc)}
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
		ch := r.record()
		r.bytes += ch.size()
		r.chunks[r.made].Store(ch)
	}
	return r.chunks[ci].Load()
}

// record generates the next chunk: it encodes ChunkUops uops into a
// scratch, then copies them into a chunk sized to hold exactly its
// addresses. Called under mu.
func (r *Recording) record() *recChunk {
	s := scratchPool.Get().(*chunkScratch)
	defer scratchPool.Put(s)
	var u uop.UOp
	n := 0
	for i := range s.ids {
		w := r.gen.nextInto(&u)
		if u.Taken() {
			w |= idTaken
		}
		if u.Mispredicted() {
			w |= idMispredicted
		}
		s.ids[i] = w
		if u.HasMemAddr() {
			s.addrs[n] = u.Addr
			n++
		}
	}
	ch := allocChunk(n)
	copy(ch.ids, s.ids[:])
	copy(ch.addrs, s.addrs[:n])
	return ch
}

// release frees the chunks of an unregistered recording. No cursor may
// read the recording afterwards.
func (r *Recording) release() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.made {
		r.chunks[i].Swap(nil).free()
	}
}

// Len reports how many uops have been recorded so far. Chunks are always
// full, so the length is a whole number of chunks.
func (r *Recording) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.made * ChunkUops
}

// PackedBytes reports the recording's chunk bytes: 2 per recorded uop
// and 4 per load or STA address.
func (r *Recording) PackedBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bytes
}

// SidecarBytes reports 0: a recording holds no dependence side-car, since
// the engine resolves producers at rename.
func (r *Recording) SidecarBytes() int64 { return 0 }

// Cursor replays a recording from the start. It implements the engine's
// Source (NextBatchRef) as well as the scalar trace Source. A cursor owns
// one decode buffer of ChunkUops uops (48 KiB), allocated at its first
// read, and no generation state until it passes the sharing cap. Cursors
// are independent; a cursor is not safe for concurrent use by multiple
// goroutines, but any number of cursors may run concurrently over one
// recording.
type Cursor struct {
	rec *Recording
	// us is the current decoded chunk, held directly so Next is an index,
	// an increment and one length check — nil before the first advance,
	// which a fresh cursor trips exactly like a chunk boundary.
	us   []uop.UOp
	base int // stream position of us[0]
	i    int // next index within us
	// tail generates the portion beyond the sharing cap privately; nil
	// until the cap is crossed.
	tail *Generator
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

// NextBatchRef returns the remainder of the current decoded chunk,
// consuming it all, and the placeholders ooo.Source names (nil and 0). The
// slice is the cursor's decode buffer: it stays valid until the next call
// on this cursor. This is the engine fetch path's refill seam (ooo.Source).
func (c *Cursor) NextBatchRef() ([]uop.UOp, []uop.Dep, int64) {
	if c.i == len(c.us) {
		c.advance()
	}
	us := c.us[c.i:]
	c.i = len(c.us)
	return us, nil, 0
}

// advance decodes the chunk holding the cursor's next stream position,
// base+i, into its buffer. Chunks are whole, so that position is
// chunk-aligned here.
func (c *Cursor) advance() {
	pos := c.base + c.i
	c.base, c.i = pos, 0
	if c.us == nil {
		c.us = make([]uop.UOp, ChunkUops)
	}
	if ci := pos >> chunkShift; ci < c.rec.maxChunks {
		c.rec.chunk(ci).decode(c.us, c.rec.tmpl)
		return
	}
	c.advanceTail()
}

// advanceTail serves positions past the sharing cap: regenerate privately,
// skip the shared prefix — one status-quo generation, only for runs long
// enough to blow the cap — then generate each chunk straight into the
// decode buffer, so the overflow costs no memory beyond it however far it
// runs.
func (c *Cursor) advanceTail() {
	if c.tail == nil {
		c.tail = New(c.rec.prof)
		var u uop.UOp
		for i := 0; i < c.base; i++ {
			c.tail.nextInto(&u)
		}
	}
	for i := range c.us {
		c.tail.nextInto(&c.us[i])
	}
}
