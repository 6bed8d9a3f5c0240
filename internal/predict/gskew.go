package predict

// GSkew is the skewed global predictor of Michaud, Seznec and Uhlig
// ([Mich97]): three counter banks indexed by three different hash functions
// of (key, global history), with a majority vote across banks. Skewing
// spreads aliases so that two keys that collide in one bank rarely collide in
// another. The paper's hybrid HMP uses 3 tables of 1K entries over a
// 20-outcome history; bank predictors A and C use a 17-outcome history.
//
// The three banks live in ONE flat ctrTable: bank b occupies entries
// [b<<indexBits, (b+1)<<indexBits), so a vote touches one byte array.
type GSkew struct {
	banks       ctrTable
	history     uint64
	indexBits   uint
	historyLen  uint
	counterBits uint
}

// NewGSkew returns a gskew predictor with three 2^indexBits-entry banks and a
// historyLen-outcome global history.
func NewGSkew(indexBits, historyLen, counterBits uint) *GSkew {
	g := &GSkew{indexBits: indexBits, historyLen: historyLen, counterBits: counterBits}
	g.banks = newCtrTable(3<<indexBits, counterBits)
	return g
}

// skewHash mixes key and history with a per-bank multiplier so that the three
// bank indices are decorrelated, then offsets into the bank's slice of the
// flat table. This stands in for the H/H^-1 skewing functions of [Mich97];
// only the decorrelation property matters here.
func (g *GSkew) skewHash(bank int, key uint64) uint64 {
	var muls = [3]uint64{0x9e3779b97f4a7c15, 0xc2b2ae3d27d4eb4f, 0x165667b19e3779f9}
	v := hashIP(key) ^ (g.history & mask(g.historyLen))
	v *= muls[bank]
	v ^= v >> 31
	return uint64(bank)<<g.indexBits | v&mask(g.indexBits)
}

// vote tallies the three banks for key; it returns the majority direction
// and the agreeing bank count.
func (g *GSkew) vote(key uint64) (taken bool, agree int) {
	votes := 0
	for b := 0; b < 3; b++ {
		if g.banks.taken(g.skewHash(b, key)) {
			votes++
		}
	}
	taken = votes >= 2
	if taken {
		agree = votes
	} else {
		agree = 3 - votes
	}
	return taken, agree
}

// Predict implements Binary. Confidence is 0 for a 2-1 vote and 2 for a
// unanimous vote, scaled so it is comparable with counter confidences.
func (g *GSkew) Predict(key uint64) Prediction {
	taken, agree := g.vote(key)
	return Prediction{Taken: taken, Confidence: (agree - 2) * 2}
}

// Update implements Binary. Banks follow partial update: all banks train on
// a correct prediction only if they agreed; on a misprediction every bank
// trains toward the outcome ([Mich97] partial-update policy).
func (g *GSkew) Update(key uint64, outcome bool) {
	predicted, _ := g.vote(key)
	for b := 0; b < 3; b++ {
		i := g.skewHash(b, key)
		if predicted == outcome && g.banks.taken(i) != outcome {
			continue // correct overall; do not disturb the dissenting bank
		}
		g.banks.train(i, outcome)
	}
	g.history <<= 1
	if outcome {
		g.history |= 1
	}
}

// WithInit sets every counter of a freshly built predictor to v; see
// GShare.WithInit.
func (g *GSkew) WithInit(v uint8) *GSkew {
	g.banks.fill(v)
	return g
}
