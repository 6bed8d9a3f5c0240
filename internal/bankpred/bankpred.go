// Package bankpred implements the paper's third contribution: cache-bank
// prediction (§2.3). Knowing a load's bank before scheduling lets the
// scheduler avoid co-issuing conflicting loads to a multi-banked cache, and
// enables the sliced memory pipeline (single-bank pipes with no crossbar).
//
// With two banks the bank bit is a binary outcome, so the paper adapts its
// binary-predictor kit. The package provides the paper's predictors A, B and
// C (chooser combinations of local/gshare/gskew/bimodal components with
// confidence policies), the address-predictor-based bank predictor
// ([Beke99]), and the evaluation metric of §4.3.
package bankpred

import (
	"loadsched/internal/addrpred"
	"loadsched/internal/cache"
	"loadsched/internal/predict"
)

// Predictor predicts the bank a load will access, or abstains. Abstaining
// loads are dispatched to all banks (duplication), which the paper's metric
// treats as neither gain nor penalty.
type Predictor interface {
	// Predict returns the predicted bank and whether a (confident)
	// prediction is made at all.
	Predict(ip uint64) (bank int, ok bool)
	// Update trains with the actual bank.
	Update(ip uint64, bank int)
	// Name identifies the configuration.
	Name() string
}

// binaryBank adapts a weighted, confidence-gated vote of binary component
// predictors to 2-bank prediction: "taken" means bank 1. Each component's
// vote is weighted by weight×confidence, so an unconfident component
// contributes nothing; the predictor abstains unless the absolute signed sum
// reaches minMargin. This realizes the §2.3 policies "a different weight
// assigned according to the confidence level" plus a prediction threshold.
type binaryBank struct {
	comps   []predict.Binary
	weights []int
	name    string
	// minMargin is the minimum |confidence-weighted vote sum| required to
	// predict; raising it trades prediction rate for accuracy, the knob
	// §2.3 discusses.
	minMargin int
}

// Predict implements Predictor.
func (b *binaryBank) Predict(ip uint64) (int, bool) {
	sum := 0
	for i, c := range b.comps {
		p := c.Predict(ip)
		v := b.weights[i] * p.Confidence
		if p.Taken {
			sum += v
		} else {
			sum -= v
		}
	}
	abs := sum
	if abs < 0 {
		abs = -abs
	}
	if abs < b.minMargin {
		return 0, false
	}
	if sum > 0 {
		return 1, true
	}
	return 0, true
}

// Update implements Predictor.
func (b *binaryBank) Update(ip uint64, bank int) {
	for _, c := range b.comps {
		c.Update(ip, bank == 1)
	}
}

// Name implements Predictor.
func (b *binaryBank) Name() string { return b.name }

// Component geometries from §4.3 (3-bit counters give the confidence
// resolution the gating needs; the storage budget stays under 2KB):
//
//	Local  - 512 entries (untagged), 8-bit history (0.5KB)
//	Gshare - 11-bit history (0.5KB)
//	GSkew  - 17-bit history, 3 tables of 1024 entries (0.75KB)
//	Bimodal - 2K entries
func newLocalComp() predict.Binary   { return predict.NewLocal(9, 8, 3) }
func newGShareComp() predict.Binary  { return predict.NewGShare(11, 11, 3) }
func newGSkewComp() predict.Binary   { return predict.NewGSkew(10, 17, 3) }
func newLocal4Comp() predict.Binary  { return predict.NewLocal(9, 8, 4) }
func newGShare4Comp() predict.Binary { return predict.NewGShare(11, 11, 4) }
func newBimodalComp() predict.Binary { return predict.NewBimodal(11, 4) }

// NewPredictorA is the paper's Predictor A: local + gshare + gskew with a
// confidence-weighted vote. Typical SpecINT operating point: ≈50% prediction
// rate at ≈97% accuracy.
func NewPredictorA() Predictor {
	return &binaryBank{
		comps:     []predict.Binary{newLocalComp(), newGShareComp(), newGSkewComp()},
		weights:   []int{1, 1, 1},
		name:      "A:local+gshare+gskew",
		minMargin: 8,
	}
}

// NewPredictorB is the paper's Predictor B: local + gshare + bimodal.
// Typical operating point: ≈50% rate at ≈98% accuracy (the most accurate
// chooser, at the lowest rate).
func NewPredictorB() Predictor {
	return &binaryBank{
		// 4-bit counters: the deeper confidence range lets B trade more
		// rate for accuracy than A can (its paper role).
		comps:     []predict.Binary{newLocal4Comp(), newGShare4Comp(), newBimodalComp()},
		weights:   []int{1, 1, 1},
		name:      "B:local+gshare+bimodal",
		minMargin: 20,
	}
}

// NewPredictorC is the paper's Predictor C: local + 2×gshare + gskew (the
// gshare vote carries double weight). Typical operating point: ≈70% rate at
// ≈97% accuracy — the high-rate configuration suited to the sliced pipe.
func NewPredictorC() Predictor {
	return &binaryBank{
		comps:     []predict.Binary{newLocalComp(), newGShareComp(), newGSkewComp()},
		weights:   []int{1, 2, 1},
		name:      "C:local+2*gshare+gskew",
		minMargin: 8,
	}
}

// AddrBank predicts the bank from a predicted effective address ([Beke99]):
// the bank is just one bit of the address, so a confident address prediction
// is a confident bank prediction. Typical operating point: ≈70% rate at
// ≈98% accuracy.
type AddrBank struct {
	ap      *addrpred.Predictor
	banking cache.Banking
}

// NewAddrBank builds the address-predictor-based bank predictor.
func NewAddrBank(banking cache.Banking) *AddrBank {
	ap := addrpred.New(2048, 4)
	ap.ConfThreshold = 3 // saturated stride only: [Beke99]'s ≈70%/98% point
	return &AddrBank{ap: ap, banking: banking}
}

// Predict implements Predictor.
func (a *AddrBank) Predict(ip uint64) (int, bool) {
	pr := a.ap.Predict(ip)
	if !pr.Confident {
		return 0, false
	}
	return a.banking.BankOf(pr.Addr), true
}

// UpdateAddr trains with the actual effective address (richer than the bank
// alone; the bank evaluator calls this when it has the address).
func (a *AddrBank) UpdateAddr(ip, addr uint64) { a.ap.Update(ip, addr) }

// Update implements Predictor; with only the bank available it synthesizes a
// line-granular address, which preserves the bank bit.
func (a *AddrBank) Update(ip uint64, bank int) {
	a.ap.Update(ip, uint64(bank*a.banking.LineBytes))
}

// Name implements Predictor.
func (a *AddrBank) Name() string { return "Addr" }
