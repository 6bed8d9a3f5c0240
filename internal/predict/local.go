package predict

// Local is the two-level local-history predictor adapted in the paper for
// hit-miss prediction ("instead of recording the taken/not-taken history of
// each branch, we record the hit/miss history of each load"). Level one is a
// tagless table of per-address history registers; level two is a pattern
// table of saturating counters indexed by the history value. Both levels
// are flat primitive arrays: histories are uint32 (historyLen is at most
// 24 bits) and the pattern counters live in a ctrTable byte array.
type Local struct {
	histories   []uint32
	pattern     ctrTable
	indexBits   uint
	historyLen  uint
	counterBits uint
}

// NewLocal returns a local predictor with 2^indexBits history registers of
// historyLen bits each, and a 2^historyLen-entry pattern table of
// counterBits-bit counters. The paper's HMP uses indexBits=11 (2048 entries)
// and historyLen=8 (~2KB).
func NewLocal(indexBits, historyLen, counterBits uint) *Local {
	if historyLen == 0 || historyLen > 24 {
		panic("predict: local history length out of range")
	}
	l := &Local{indexBits: indexBits, historyLen: historyLen, counterBits: counterBits}
	l.histories = make([]uint32, 1<<indexBits)
	l.pattern = newCtrTable(1<<historyLen, counterBits)
	return l
}

func (l *Local) index(key uint64) uint64 { return hashIP(key) & mask(l.indexBits) }

// Predict implements Binary.
func (l *Local) Predict(key uint64) Prediction {
	return l.pattern.predict(uint64(l.histories[l.index(key)]))
}

// Update implements Binary.
func (l *Local) Update(key uint64, outcome bool) {
	i := l.index(key)
	h := l.histories[i]
	l.pattern.train(uint64(h), outcome)
	h = (h << 1) & uint32(mask(l.historyLen))
	if outcome {
		h |= 1
	}
	l.histories[i] = h
}

// WithInit sets every pattern counter of a freshly built predictor to v.
// Rare-event adapters (e.g. hit-miss prediction, where a "taken" outcome
// is a cache miss) initialize at 0 (strongly not-taken) so that a single
// stray outcome in a shared pattern entry does not flip predictions for
// every load whose history maps there.
func (l *Local) WithInit(v uint8) *Local {
	l.pattern.fill(v)
	return l
}

// Size returns the number of level-one entries.
func (l *Local) Size() int { return len(l.histories) }
