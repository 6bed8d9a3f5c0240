// Package memdep implements the paper's first and primary contribution:
// speculative memory disambiguation through collision prediction (§2.1).
//
// Instead of predicting exact load–store pairs, a Collision History Table
// (CHT) predicts a single property of each load: will it collide with *any*
// older, not-yet-executed store in the scheduling window? Predicted
// non-colliding loads are advanced ahead of all stores; predicted colliding
// loads are held back. The exclusive variant additionally learns the minimal
// store-distance to the colliding store, letting a colliding load bypass the
// closer, unrelated stores.
//
// The package provides the four CHT organizations of Figure 2 (Full,
// Implicit-predictor, Tagless, Combined) and the six memory-ordering schemes
// of §3.1 (Traditional, Opportunistic, Postponing, Inclusive, Exclusive,
// Perfect) as a scheme enum the scheduler interprets.
package memdep

import "fmt"

// Scheme is one of the six memory reference ordering methods of §3.1.
type Scheme int

const (
	// Traditional: each load waits for all older STAs, but can advance ahead
	// of STDs; a wrong load–STD ordering adds a collision penalty. This is
	// the P6 baseline all speedups are measured against.
	Traditional Scheme = iota
	// Opportunistic: every load is assumed non-colliding and advanced as
	// much as possible; actual collisions wait for the colliding STA/STD and
	// add the collision penalty.
	Opportunistic
	// Postponing: loads wait for all older STAs (as Traditional) and a CHT
	// postpones predicted-colliding loads until all older STDs execute.
	Postponing
	// Inclusive: a CHT predicts colliding loads, which wait for ALL older
	// stores; predicted non-colliding loads advance ahead of everything.
	Inclusive
	// Exclusive: the CHT also predicts the collision distance; a predicted
	// colliding load waits only for stores at that distance or farther.
	Exclusive
	// Perfect: oracle disambiguation — loads wait exactly for the stores
	// they truly depend on.
	Perfect
)

var schemeNames = [...]string{
	Traditional:   "Traditional",
	Opportunistic: "Opportunistic",
	Postponing:    "Postponing",
	Inclusive:     "Inclusive",
	Exclusive:     "Exclusive",
	Perfect:       "Perfect",
}

// String names the scheme as the paper does.
func (s Scheme) String() string {
	if int(s) < len(schemeNames) {
		return schemeNames[s]
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// Schemes lists all six ordering schemes in the paper's order.
func Schemes() []Scheme {
	return []Scheme{Traditional, Opportunistic, Postponing, Inclusive, Exclusive, Perfect}
}

// UsesCHT reports whether the scheme consults a collision predictor.
func (s Scheme) UsesCHT() bool {
	return s == Postponing || s == Inclusive || s == Exclusive
}

// NoDistance marks a prediction without usable distance information: the
// load must be treated as colliding with every older store.
const NoDistance = 0

// Prediction is a collision prediction for one load.
type Prediction struct {
	// Colliding predicts whether the load will collide with an older
	// in-flight store.
	Colliding bool
	// Distance is the predicted minimal store-distance to the colliding
	// store (1 = the closest older store). NoDistance means unknown: wait
	// for all older stores. Only exclusive predictors produce distances.
	Distance int
}

// Predictor is a collision history table. Lookup happens at rename; Record
// happens at load retire with the observed truth.
type Predictor interface {
	// Lookup predicts whether the load at ip collides.
	Lookup(ip uint64) Prediction
	// Record trains the table: collided is the load's actual status, and
	// distance the observed store-distance (NoDistance when not colliding).
	Record(ip uint64, collided bool, distance int)
	// Name identifies the configuration for reports.
	Name() string
}

// Classification tallies dynamic loads into the taxonomy of Figure 1.
// NotConflicting + AC + ANC = all loads; the four predicted sub-buckets
// partition the conflicting loads.
type Classification struct {
	// Loads is the total number of classified dynamic loads.
	Loads uint64
	// NotConflicting loads had no older unresolved STA at schedule time.
	NotConflicting uint64
	// ANCPC / ANCPNC: actually-non-colliding, predicted colliding (lost
	// opportunity) / predicted non-colliding (correct).
	ANCPC, ANCPNC uint64
	// ACPC / ACPNC: actually-colliding, predicted colliding (correct) /
	// predicted non-colliding (full re-execution penalty).
	ACPC, ACPNC uint64
}

// AC returns all actually-colliding loads.
func (c *Classification) AC() uint64 { return c.ACPC + c.ACPNC }

// ANC returns all conflicting but non-colliding loads.
func (c *Classification) ANC() uint64 { return c.ANCPC + c.ANCPNC }

// Conflicting returns all loads with an unresolved older STA at schedule
// time.
func (c *Classification) Conflicting() uint64 { return c.AC() + c.ANC() }

// Add accumulates another classification.
func (c *Classification) Add(o Classification) {
	c.Loads += o.Loads
	c.NotConflicting += o.NotConflicting
	c.ANCPC += o.ANCPC
	c.ANCPNC += o.ANCPNC
	c.ACPC += o.ACPC
	c.ACPNC += o.ACPNC
}

// FracOfLoads returns n as a fraction of all classified loads.
func (c *Classification) FracOfLoads(n uint64) float64 {
	if c.Loads == 0 {
		return 0
	}
	return float64(n) / float64(c.Loads)
}

// FracOfConflicting returns n as a fraction of conflicting loads (the
// denominator of Figure 9).
func (c *Classification) FracOfConflicting(n uint64) float64 {
	d := c.Conflicting()
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}
