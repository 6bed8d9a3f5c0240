package cache

// MissQueue models the outstanding-miss queue (MSHR file) plus the small
// "recently serviced" buffer the paper suggests for the hit-miss predictor's
// timing enhancement (§2.2): if a load accesses a line that is currently
// being fetched it will also miss (a dynamic miss); if the line was serviced
// recently it will most likely hit.
type MissQueue struct {
	capacity int
	// entries maps a line address to the cycle its fill completes.
	entries map[uint64]int64
	// order is the FIFO of line addresses for capacity eviction.
	order []uint64
	// minReady is a lower bound on the earliest completion among entries
	// (stale-low is fine; it only costs one redundant walk). Advance is
	// called once per load execution and the queue is usually either empty
	// or all in-flight, so the bound turns the common call into a compare.
	minReady int64

	// serviced is a ring of recently completed fills.
	serviced    []servicedLine
	servicedPos int
	// ServicedWindow is how many cycles after a fill a line is considered
	// "recently serviced".
	ServicedWindow int64
}

type servicedLine struct {
	line    uint64
	readyAt int64
	valid   bool
}

// NewMissQueue builds a queue of the given capacity with a recently-serviced
// ring of the same size and a default 200-cycle serviced window.
func NewMissQueue(capacity int) *MissQueue {
	if capacity <= 0 {
		capacity = 8
	}
	return &MissQueue{
		capacity:       capacity,
		entries:        make(map[uint64]int64, capacity),
		serviced:       make([]servicedLine, capacity),
		ServicedWindow: 200,
	}
}

func lineAddr(addr uint64) uint64 { return addr &^ 63 }

// RecordMiss registers that addr's line started a fill completing at readyAt.
// If the queue is full the oldest entry is retired to the serviced ring.
func (q *MissQueue) RecordMiss(addr uint64, readyAt int64) {
	line := lineAddr(addr)
	if _, ok := q.entries[line]; ok {
		return // secondary miss merges into the existing entry
	}
	if len(q.order) >= q.capacity {
		// Shift in place rather than re-slicing: advancing the slice start
		// would creep along the backing array and force append to reallocate.
		oldest := q.order[0]
		copy(q.order, q.order[1:])
		q.order = q.order[:len(q.order)-1]
		q.retire(oldest, q.entries[oldest])
		delete(q.entries, oldest)
	}
	if len(q.order) == 0 || readyAt < q.minReady {
		q.minReady = readyAt
	}
	q.entries[line] = readyAt
	q.order = append(q.order, line)
}

func (q *MissQueue) retire(line uint64, readyAt int64) {
	q.serviced[q.servicedPos] = servicedLine{line: line, readyAt: readyAt, valid: true}
	q.servicedPos = (q.servicedPos + 1) % len(q.serviced)
}

// Advance retires all fills that completed at or before now into the
// serviced ring. Call once per prediction with the current cycle.
func (q *MissQueue) Advance(now int64) {
	if len(q.order) == 0 || now < q.minReady {
		return // nothing in flight can have completed yet
	}
	kept := q.order[:0]
	const maxInt64 = 1<<63 - 1
	min := int64(maxInt64)
	for _, line := range q.order {
		ready := q.entries[line]
		if ready <= now {
			q.retire(line, ready)
			delete(q.entries, line)
			continue
		}
		if ready < min {
			min = ready
		}
		kept = append(kept, line)
	}
	q.order = kept
	q.minReady = min
}

// Outstanding reports whether addr's line has a fill in flight at cycle now:
// a load to it will dynamically miss.
func (q *MissQueue) Outstanding(addr uint64, now int64) bool {
	if len(q.order) == 0 {
		return false
	}
	ready, ok := q.entries[lineAddr(addr)]
	return ok && ready > now
}

// ReadyAt returns the completion cycle of addr's in-flight fill, if any.
func (q *MissQueue) ReadyAt(addr uint64) (int64, bool) {
	if len(q.order) == 0 {
		return 0, false
	}
	ready, ok := q.entries[lineAddr(addr)]
	return ready, ok
}

// RecentlyServiced reports whether addr's line completed a fill within
// ServicedWindow cycles before now: a load to it will almost surely hit.
func (q *MissQueue) RecentlyServiced(addr uint64, now int64) bool {
	line := lineAddr(addr)
	for _, s := range q.serviced {
		if s.valid && s.line == line && s.readyAt <= now && now-s.readyAt <= q.ServicedWindow {
			return true
		}
	}
	return false
}

// Len returns the number of in-flight misses.
func (q *MissQueue) Len() int { return len(q.order) }
