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
