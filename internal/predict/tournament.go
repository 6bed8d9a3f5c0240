package predict

// Tournament is McFarling's combining predictor ([Mcfa93], cited by the
// paper): two component predictors plus a per-key table of 2-bit chooser
// counters that learns which component to trust for each key. Where the
// paper's hybrid HMP votes by majority, the tournament *selects* — useful
// when one component dominates for some loads and the other elsewhere. The
// chooser counters live in a flat ctrTable byte array.
type Tournament struct {
	a, b      Binary
	chooser   ctrTable
	indexBits uint
}

// NewTournament builds a tournament of a and b with 2^indexBits chooser
// counters. The chooser predicts "use B" when its counter is high.
func NewTournament(a, b Binary, indexBits uint) *Tournament {
	return &Tournament{
		a: a, b: b, indexBits: indexBits,
		chooser: newCtrTable(1<<indexBits, 2),
	}
}

func (t *Tournament) index(key uint64) uint64 { return hashIP(key) & mask(t.indexBits) }

// Predict implements Binary.
func (t *Tournament) Predict(key uint64) Prediction {
	if t.chooser.taken(t.index(key)) {
		return t.b.Predict(key)
	}
	return t.a.Predict(key)
}

// Update implements Binary: both components train; the chooser moves toward
// whichever component was right when exactly one of them was.
func (t *Tournament) Update(key uint64, outcome bool) {
	pa := t.a.Predict(key).Taken == outcome
	pb := t.b.Predict(key).Taken == outcome
	if pa != pb {
		t.chooser.train(t.index(key), pb)
	}
	t.a.Update(key, outcome)
	t.b.Update(key, outcome)
}
