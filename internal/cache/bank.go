package cache

// Banking describes the multi-banked organization of the L1 data cache
// (paper §2.3). Banks are line-interleaved: bank = bits of the line address.
type Banking struct {
	// Banks is the number of banks (power of two; the paper studies 2).
	Banks int
	// LineBytes is the interleaving granularity (the cache line size).
	LineBytes int
}

// DefaultBanking is the two-bank, 64-byte-interleaved configuration the
// paper evaluates.
func DefaultBanking() Banking { return Banking{Banks: 2, LineBytes: 64} }

// BankOf returns the bank servicing addr.
func (b Banking) BankOf(addr uint64) int {
	line := addr / uint64(b.LineBytes)
	return int(line % uint64(b.Banks))
}

// BankBits returns log2(Banks).
func (b Banking) BankBits() int {
	n := 0
	for 1<<n < b.Banks {
		n++
	}
	return n
}

// ConflictTracker counts bank conflicts among the loads dispatched in one
// cycle. The scheduler calls Begin at the start of a cycle and Dispatch for
// every memory access it issues; Dispatch reports whether the access
// conflicts with an earlier access to the same bank this cycle.
type ConflictTracker struct {
	banking Banking
	used    []bool

	// Conflicts counts same-cycle same-bank collisions since construction.
	Conflicts uint64
	// Accesses counts all dispatched accesses.
	Accesses uint64
}

// NewConflictTracker builds a tracker for the banking scheme.
func NewConflictTracker(b Banking) *ConflictTracker {
	return &ConflictTracker{banking: b, used: make([]bool, b.Banks)}
}

// Begin starts a new cycle.
func (t *ConflictTracker) Begin() {
	for i := range t.used {
		t.used[i] = false
	}
}

// Dispatch registers an access to addr in the current cycle and reports
// whether it conflicts with a prior same-cycle access to the same bank.
func (t *ConflictTracker) Dispatch(addr uint64) bool {
	t.Accesses++
	bank := t.banking.BankOf(addr)
	if t.used[bank] {
		t.Conflicts++
		return true
	}
	t.used[bank] = true
	return false
}

// BankFree reports whether the given bank is still unused this cycle.
func (t *ConflictTracker) BankFree(bank int) bool { return !t.used[bank] }
