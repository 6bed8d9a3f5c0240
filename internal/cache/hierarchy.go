package cache

// Level identifies where in the hierarchy a load's data was found.
type Level int

const (
	// L1 means the access hit the first-level data cache.
	L1 Level = iota
	// L2 means the access missed L1 but hit the unified second-level cache.
	L2
	// Memory means the access missed both cache levels.
	Memory
)

// String names the level.
func (l Level) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	default:
		return "mem"
	}
}

// Latencies holds the load-to-use latency, in cycles after dispatch, for each
// hierarchy level. The paper's deep-pipe example (Fig 3): an L1 hit executes
// with a latency of 8 cycles after scheduling (2 RF + 1 AGU + 5 cache) and an
// L1-miss/L2-hit takes 15.
type Latencies struct {
	L1, L2, Memory int
	// HitIndication is the number of cycles after dispatch at which the
	// hit/miss outcome becomes known (5 in the paper's example). An AH-PM
	// load's dependents wait for this indication before dispatching.
	HitIndication int
}

// DefaultLatencies mirrors the paper's pipeline example with a 60-cycle
// memory access.
func DefaultLatencies() Latencies {
	return Latencies{L1: 8, L2: 15, Memory: 60, HitIndication: 5}
}

// Of returns the latency for a level.
func (l Latencies) Of(level Level) int {
	switch level {
	case L1:
		return l.L1
	case L2:
		return l.L2
	default:
		return l.Memory
	}
}

// HierarchyConfig configures the cache levels. L1I is geometry only: the
// instruction cache carries no timing (traces arrive pre-fetched), but its
// configuration is validated alongside L1D/L2 so a machine description with
// an impossible front-end geometry is rejected rather than silently
// ignored. A zero L1I means "not modelled" and skips validation.
type HierarchyConfig struct {
	L1I, L1D, L2 Config
}

// DefaultHierarchyConfig is the machine of §3.1: 16K L1I, 16K L1D and 256K
// unified L2, 4-way, 64-byte lines.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I: Config{SizeBytes: 16 << 10, LineBytes: 64, Ways: 4},
		L1D: Config{SizeBytes: 16 << 10, LineBytes: 64, Ways: 4},
		L2:  Config{SizeBytes: 256 << 10, LineBytes: 64, Ways: 4},
	}
}

// Hierarchy is the two-level data hierarchy. Access semantics are inclusive:
// an L1 miss that hits L2 fills L1; a full miss fills both.
type Hierarchy struct {
	l1d *Cache
	l2  *Cache
}

// NewHierarchy builds the hierarchy.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{l1d: New(cfg.L1D), l2: New(cfg.L2)}
}

// L1D exposes the first-level data cache.
func (h *Hierarchy) L1D() *Cache { return h.l1d }

// L2 exposes the unified second level.
func (h *Hierarchy) L2() *Cache { return h.l2 }

// Access performs a data access and returns the level that serviced it,
// updating both caches' contents and statistics.
func (h *Hierarchy) Access(addr uint64) Level {
	if h.l1d.Access(addr) {
		return L1
	}
	if h.l2.Access(addr) {
		return L2
	}
	return Memory
}

// Probe returns the level that would service addr without changing any
// state. It is the oracle used by perfect hit-miss prediction.
func (h *Hierarchy) Probe(addr uint64) Level {
	if h.l1d.Contains(addr) {
		return L1
	}
	if h.l2.Contains(addr) {
		return L2
	}
	return Memory
}
