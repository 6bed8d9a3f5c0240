package predict

// GShare is McFarling's global-history predictor: one pattern table indexed
// by the XOR of the key hash with a global outcome history. The paper's
// hybrid HMP uses an 11-outcome load-global history; bank predictors use a
// history of recent bank outcomes. The counters live in a flat ctrTable
// byte array.
type GShare struct {
	table       ctrTable
	history     uint64
	indexBits   uint
	historyLen  uint
	counterBits uint
}

// NewGShare returns a gshare predictor with 2^indexBits counters and a
// historyLen-outcome global history (historyLen <= indexBits is typical but
// not required; the history is folded to the index width).
func NewGShare(indexBits, historyLen, counterBits uint) *GShare {
	g := &GShare{indexBits: indexBits, historyLen: historyLen, counterBits: counterBits}
	g.table = newCtrTable(1<<indexBits, counterBits)
	return g
}

func (g *GShare) index(key uint64) uint64 {
	h := g.history & mask(g.historyLen)
	// Fold a history longer than the index down to the index width.
	for bits := g.historyLen; bits > g.indexBits; bits -= g.indexBits {
		h = (h & mask(g.indexBits)) ^ (h >> g.indexBits)
	}
	return (hashIP(key) ^ h) & mask(g.indexBits)
}

// Predict implements Binary.
func (g *GShare) Predict(key uint64) Prediction {
	return g.table.predict(g.index(key))
}

// Update implements Binary.
func (g *GShare) Update(key uint64, outcome bool) {
	g.table.train(g.index(key), outcome)
	g.history <<= 1
	if outcome {
		g.history |= 1
	}
}

// WithInit sets every counter of a freshly built predictor to v;
// rare-event adapters (hit-miss prediction) use 0 so shared entries default
// strongly to the common outcome.
func (g *GShare) WithInit(v uint8) *GShare {
	g.table.fill(v)
	return g
}

// History returns the current global history value (low historyLen bits).
func (g *GShare) History() uint64 { return g.history & mask(g.historyLen) }
