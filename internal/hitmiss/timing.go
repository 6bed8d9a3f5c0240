package hitmiss

import "loadsched/internal/cache"

// Timing wraps a base predictor with the paper's timing enhancement (§2.2):
// dynamic misses and just-serviced lines override the history prediction.
//
//   - If the accessed line has a fill in flight (it sits in the outstanding
//     miss queue), the load will also miss — predict miss regardless of
//     history.
//   - If the line completed a fill recently (recently-serviced buffer), the
//     load will almost surely hit — predict hit.
//   - Otherwise defer to the base predictor.
//
// The engine owns the MissQueue and feeds it actual miss events; Timing only
// consults it.
type Timing struct {
	// Base is the underlying history predictor.
	Base Predictor
	// Queue is the outstanding-miss queue (MSHR) plus recently-serviced
	// buffer maintained by the execution engine.
	Queue *cache.MissQueue
}

// NewTiming wraps base with timing information from queue.
func NewTiming(base Predictor, queue *cache.MissQueue) *Timing {
	return &Timing{Base: base, Queue: queue}
}

// PredictHit implements Predictor.
func (t *Timing) PredictHit(ip, addr uint64, now int64) bool {
	t.Queue.Advance(now)
	if t.Queue.Outstanding(addr, now) {
		return false // dynamic miss: the line is still being fetched
	}
	if t.Queue.RecentlyServiced(addr, now) {
		return true // the line just arrived
	}
	return t.Base.PredictHit(ip, addr, now)
}

// Update implements Predictor. Only the history component trains; the queue
// is maintained by the engine from actual miss traffic.
func (t *Timing) Update(ip, addr uint64, now int64, hit bool) {
	t.Base.Update(ip, addr, now, hit)
}

// Name implements Predictor.
func (t *Timing) Name() string { return t.Base.Name() + "+timing" }
