//go:build unix && !race

package trace

import (
	"syscall"
	"unsafe"

	"loadsched/internal/uop"
)

// offHeap reports whether recording chunks live outside the Go heap.
const offHeap = true

// chunkUopBytes and chunkBytes size one chunk's mapping: its uops, then
// its side-car entries (65,536 bytes, 16 pages of 4 KiB).
const (
	chunkUopBytes = ChunkUops * int(unsafe.Sizeof(uop.UOp{}))
	chunkBytes    = chunkUopBytes + ChunkUops*int(unsafe.Sizeof(uop.Dep{}))
)

// allocChunk returns a zeroed chunk whose uops and side-car share one
// private anonymous mapping. The collector neither scans nor counts
// mapped bytes, so recordings stop raising the heap goal; uop.UOp and
// uop.Dep hold no pointers, which is what makes that safe. If the mapping
// fails (the process's mapping limit, say) the chunk falls back to the
// heap, which costs memory, not correctness.
func allocChunk() *recChunk {
	mem, err := syscall.Mmap(-1, 0, chunkBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return heapChunk()
	}
	return &recChunk{
		us:   unsafe.Slice((*uop.UOp)(unsafe.Pointer(&mem[0])), ChunkUops),
		deps: unsafe.Slice((*uop.Dep)(unsafe.Pointer(&mem[chunkUopBytes])), ChunkUops),
		mem:  mem,
	}
}

// free unmaps a mapped chunk; a heap chunk is left to the collector.
// Nothing may read the chunk afterwards.
func (ch *recChunk) free() {
	if ch.mem != nil {
		// Munmap fails only on a range that is not a live mapping, which
		// a chunk freed once cannot be.
		_ = syscall.Munmap(ch.mem)
		ch.mem = nil
	}
}
