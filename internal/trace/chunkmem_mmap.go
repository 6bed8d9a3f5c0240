//go:build unix && !race

package trace

import (
	"syscall"
	"unsafe"
)

// offHeap reports whether recording chunks live outside the Go heap.
const offHeap = true

// idBytes is the size of a chunk's word column, which its addresses follow
// in the same mapping.
const idBytes = 2 * ChunkUops

// allocChunk returns a zeroed chunk whose words and nAddrs addresses share
// one private anonymous mapping sized to them: 8,192 bytes of words and 4
// a load or STA, about 14 KB (4 pages of 4 KiB) for the built-in traces.
// The collector neither scans nor counts mapped bytes, so recordings stop
// raising the heap goal; the columns hold no pointers, which is what makes
// that safe. If the mapping fails (the process's mapping limit, say) the
// chunk falls back to the heap, which costs memory, not correctness.
func allocChunk(nAddrs int) *recChunk {
	mem, err := syscall.Mmap(-1, 0, idBytes+4*nAddrs, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return heapChunk(nAddrs)
	}
	ch := &recChunk{ids: unsafe.Slice((*uint16)(unsafe.Pointer(&mem[0])), ChunkUops), mem: mem}
	if nAddrs > 0 {
		ch.addrs = unsafe.Slice((*uint32)(unsafe.Pointer(&mem[idBytes])), nAddrs)
	}
	return ch
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
