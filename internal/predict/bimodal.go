package predict

// Bimodal is the classic per-address table of saturating counters, indexed by
// a hash of the key with no history. It is the simplest component predictor
// the paper combines into bank predictor B. The counters live in a flat
// ctrTable byte array.
type Bimodal struct {
	table       ctrTable
	indexBits   uint
	counterBits uint
}

// NewBimodal returns a bimodal predictor with 2^indexBits counters of
// counterBits each.
func NewBimodal(indexBits, counterBits uint) *Bimodal {
	b := &Bimodal{indexBits: indexBits, counterBits: counterBits}
	b.table = newCtrTable(1<<indexBits, counterBits)
	return b
}

func (b *Bimodal) index(key uint64) uint64 { return hashIP(key) & mask(b.indexBits) }

// Predict implements Binary.
func (b *Bimodal) Predict(key uint64) Prediction {
	return b.table.predict(b.index(key))
}

// Update implements Binary.
func (b *Bimodal) Update(key uint64, outcome bool) {
	b.table.train(b.index(key), outcome)
}

// Size returns the number of table entries.
func (b *Bimodal) Size() int { return len(b.table.v) }
