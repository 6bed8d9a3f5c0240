package trace

import "loadsched/internal/uop"

// Batches adapts a scalar Source to the engine's batch seam (ooo.Source):
// each NextBatchRef fills one recycled buffer with the next ChunkUops uops,
// so a generator or a hand-built stream feeds the engine exactly as a
// recording's cursor does. The returned slice stays valid until the next
// call. Not safe for concurrent use.
type Batches struct {
	src Source
	us  []uop.UOp
}

// NewBatches wraps src.
func NewBatches(src Source) *Batches {
	return &Batches{src: src, us: make([]uop.UOp, ChunkUops)}
}

// NextBatchRef returns the next ChunkUops uops. Its second and third
// results are the placeholders ooo.Source names: always nil and 0.
func (b *Batches) NextBatchRef() ([]uop.UOp, []uop.Dep, int64) {
	for i := range b.us {
		b.us[i] = b.src.Next()
	}
	return b.us, nil, 0
}
