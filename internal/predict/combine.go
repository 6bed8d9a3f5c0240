package predict

// This file implements the combination policies of paper §2.3: several
// component binary predictors each supply a prediction and a confidence, and
// a policy merges them. The hybrid hit-miss predictor of §2.2 is the Majority
// policy over {local, gshare, gskew}.

// Policy selects how component predictions are merged by a Combined
// predictor.
type Policy int

const (
	// Majority takes a simple majority vote of the component directions.
	Majority Policy = iota
	// WeightedSum assigns a static weight to each component, sums signed
	// votes, and predicts only if |sum| >= Threshold.
	WeightedSum
	// HighConfidence counts only components whose confidence is at least
	// MinConfidence; if none qualify there is no prediction.
	HighConfidence
	// ConfidenceWeighted weighs each component's vote by its reported
	// confidence plus one.
	ConfidenceWeighted
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Majority:
		return "majority"
	case WeightedSum:
		return "weighted-sum"
	case HighConfidence:
		return "high-confidence"
	case ConfidenceWeighted:
		return "confidence-weighted"
	default:
		return "policy(?)"
	}
}

// Combined merges several Binary predictors under a Policy. It implements
// Binary itself (Predict always produces a direction) and additionally
// PredictRated, which may abstain — abstention is what the bank-prediction
// "prediction rate" measures.
type Combined struct {
	// Components are the underlying predictors.
	Components []Binary
	// Weights are per-component weights for WeightedSum/ConfidenceWeighted.
	// Nil means all ones.
	Weights []int
	// Policy selects the merge rule.
	Policy Policy
	// Threshold is the minimum |signed vote sum| for WeightedSum and
	// ConfidenceWeighted to produce a prediction; below it the predictor
	// abstains in PredictRated (and falls back to the sign in Predict).
	Threshold int
	// MinConfidence is the per-component confidence floor for
	// HighConfidence.
	MinConfidence int
}

// NewMajority builds a majority-vote combination of the given components.
func NewMajority(components ...Binary) *Combined {
	return &Combined{Components: components, Policy: Majority}
}

// Rated is a prediction that may abstain.
type Rated struct {
	Prediction
	// Predicted is false when the policy abstained (no confident consensus).
	Predicted bool
}

func (c *Combined) weight(i int) int {
	if c.Weights == nil {
		return 1
	}
	return c.Weights[i]
}

// PredictRated merges component predictions; it may abstain depending on the
// policy. The confidence of the result is the absolute signed vote margin.
func (c *Combined) PredictRated(key uint64) Rated {
	sum, total := 0, 0
	for i, comp := range c.Components {
		p := comp.Predict(key)
		w := c.weight(i)
		switch c.Policy {
		case HighConfidence:
			if p.Confidence < c.MinConfidence {
				continue
			}
		case ConfidenceWeighted:
			w *= p.Confidence + 1
		}
		total += w
		if p.Taken {
			sum += w
		} else {
			sum -= w
		}
	}
	abs := sum
	if abs < 0 {
		abs = -abs
	}
	r := Rated{Prediction: Prediction{Taken: sum > 0, Confidence: abs}, Predicted: true}
	switch c.Policy {
	case Majority:
		r.Predicted = total > 0 && sum != 0
	case HighConfidence:
		r.Predicted = total > 0 && sum != 0
	case WeightedSum, ConfidenceWeighted:
		r.Predicted = abs >= c.Threshold && c.Threshold > 0 || c.Threshold == 0 && sum != 0
	}
	return r
}

// Predict implements Binary; abstentions fall back to the (possibly tied)
// vote direction.
func (c *Combined) Predict(key uint64) Prediction {
	return c.PredictRated(key).Prediction
}

// Update implements Binary by training every component.
func (c *Combined) Update(key uint64, outcome bool) {
	for _, comp := range c.Components {
		comp.Update(key, outcome)
	}
}
