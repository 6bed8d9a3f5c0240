//go:build !unix || race

package trace

// offHeap reports whether recording chunks live outside the Go heap. They
// stay on it where there is no anonymous mmap, and under the race
// detector, which does not watch mapped memory: TestReplayConcurrent must
// see every chunk write and read.
const offHeap = false

// allocChunk returns a zeroed chunk with room for nAddrs addresses on the
// Go heap.
func allocChunk(nAddrs int) *recChunk { return heapChunk(nAddrs) }

// free leaves a heap chunk to the collector.
func (ch *recChunk) free() {}
