// Package predict provides the reusable binary-predictor kit the paper's
// three techniques are built from. Hit-miss prediction, bank prediction and
// the front-end branch predictor all adapt "well-known branch predictors"
// (local two-level, gshare, gskew, bimodal) to a binary decision keyed by an
// instruction pointer; this package implements those predictors once.
//
// All predictors implement the Binary interface: Predict is pure (no state
// change), Update records the actual outcome and advances any internal
// history. Confidence is a small non-negative integer where larger means more
// confident; each predictor documents its own scale.
package predict

import "fmt"

// Prediction is a binary prediction with a confidence estimate.
type Prediction struct {
	// Taken is the predicted outcome. The meaning of "taken" is up to the
	// adapter: branch taken, load colliding, cache miss, bank 1, ...
	Taken bool
	// Confidence grows with the predictor's certainty. Zero means a guess
	// (e.g. an unwarmed counter at the weakly-taken boundary).
	Confidence int
}

// Binary is a two-outcome predictor keyed by an address (typically a load's
// instruction pointer).
type Binary interface {
	// Predict returns the prediction for key without mutating state.
	Predict(key uint64) Prediction
	// Update records the true outcome for key and advances internal history.
	Update(key uint64, outcome bool)
}

// SatCounter is an n-bit saturating counter. The zero value is a 2-bit
// counter at its weakly-not-taken state only after Init; use NewSatCounter
// or embed counters in tables which initialize them explicitly.
type SatCounter struct {
	value uint8
	max   uint8
}

// NewSatCounter returns an n-bit counter (1 <= bits <= 7) initialized to the
// weakly-not-taken value (max/2, rounded down).
func NewSatCounter(bits uint) SatCounter {
	if bits < 1 || bits > 7 {
		panic(fmt.Sprintf("predict: invalid counter width %d", bits))
	}
	max := uint8(1)<<bits - 1
	return SatCounter{value: max / 2, max: max}
}

// Inc increments toward saturation.
func (c *SatCounter) Inc() {
	if c.value < c.max {
		c.value++
	}
}

// Dec decrements toward zero.
func (c *SatCounter) Dec() {
	if c.value > 0 {
		c.value--
	}
}

// Train moves the counter toward the outcome.
func (c *SatCounter) Train(outcome bool) {
	if outcome {
		c.Inc()
	} else {
		c.Dec()
	}
}

// Taken reports the predicted direction (counter in the upper half).
func (c *SatCounter) Taken() bool { return c.value > c.max/2 }

// Value returns the raw counter value.
func (c *SatCounter) Value() uint8 { return c.value }

// Max returns the saturation value.
func (c *SatCounter) Max() uint8 { return c.max }

// Confidence returns the distance from the decision boundary, in counter
// steps: 0 at the boundary, up to max/2+ at saturation.
func (c *SatCounter) Confidence() int {
	mid := int(c.max) / 2
	v := int(c.value)
	if v > mid {
		return v - mid - 1 + boundaryBias(c.max)
	}
	return mid - v
}

// boundaryBias makes confidence symmetric for even-state counters: a 2-bit
// counter (max=3, mid=1) yields confidence {1,0,0,1} for values {0,1,2,3}.
func boundaryBias(max uint8) int {
	if max%2 == 1 {
		return 0
	}
	return 1
}

// ctrTable is a flat table of n-bit saturating counters in
// structure-of-arrays form: one raw byte per counter plus a single
// table-wide saturation value, instead of a []SatCounter whose every entry
// carries its own max. Half the footprint, and a fill is a dense byte
// write. Semantics (Taken boundary, Train clamping, Confidence scale) are
// identical to SatCounter's, per entry.
type ctrTable struct {
	v   []uint8
	max uint8
}

// newCtrTable builds a size-entry table of counterBits-bit counters at the
// weakly-not-taken value NewSatCounter starts at.
func newCtrTable(size int, counterBits uint) ctrTable {
	if counterBits < 1 || counterBits > 7 {
		panic(fmt.Sprintf("predict: invalid counter width %d", counterBits))
	}
	t := ctrTable{v: make([]uint8, size), max: uint8(1)<<counterBits - 1}
	t.fill(t.max / 2)
	return t
}

// fill sets every counter to v.
func (t *ctrTable) fill(v uint8) {
	for i := range t.v {
		t.v[i] = v
	}
}

// taken reports counter i's predicted direction (upper half of the range).
func (t *ctrTable) taken(i uint64) bool { return t.v[i] > t.max/2 }

// train moves counter i toward the outcome, saturating.
func (t *ctrTable) train(i uint64, outcome bool) {
	if outcome {
		if t.v[i] < t.max {
			t.v[i]++
		}
	} else if t.v[i] > 0 {
		t.v[i]--
	}
}

// confidence returns counter i's distance from the decision boundary, on
// SatCounter.Confidence's scale.
func (t *ctrTable) confidence(i uint64) int {
	mid := int(t.max) / 2
	v := int(t.v[i])
	if v > mid {
		return v - mid - 1 + boundaryBias(t.max)
	}
	return mid - v
}

// predict bundles counter i's direction and confidence.
func (t *ctrTable) predict(i uint64) Prediction {
	return Prediction{Taken: t.taken(i), Confidence: t.confidence(i)}
}

func mask(bits uint) uint64 { return (uint64(1) << bits) - 1 }

// hashIP folds an instruction pointer so that low entropy in the byte-aligned
// bits does not alias whole regions of the table.
func hashIP(ip uint64) uint64 {
	ip ^= ip >> 33
	ip *= 0xff51afd7ed558ccd
	ip ^= ip >> 29
	return ip
}
