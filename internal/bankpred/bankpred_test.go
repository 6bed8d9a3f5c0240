package bankpred

import (
	"math"
	"math/rand"
	"testing"

	"loadsched/internal/cache"
)

func allBankPredictors() map[string]Predictor {
	return map[string]Predictor{
		"A":    NewPredictorA(),
		"B":    NewPredictorB(),
		"C":    NewPredictorC(),
		"Addr": NewAddrBank(cache.DefaultBanking()),
	}
}

func TestLearnsFixedBankLoads(t *testing.T) {
	for name, p := range allBankPredictors() {
		// Predict-then-update per load, in stream order, as the scheduler
		// would: global-history components need the same history at query
		// and train time.
		ip0, ip1 := uint64(0x400100), uint64(0x400200)
		for i := 0; i < 300; i++ {
			p.Update(ip0, 0)
			p.Update(ip1, 1)
		}
		correct, predicted := 0, 0
		probe := func(ip uint64, want int) {
			if b, ok := p.Predict(ip); ok {
				predicted++
				if b == want {
					correct++
				}
			}
			p.Update(ip, want)
		}
		for i := 0; i < 100; i++ {
			probe(ip0, 0)
			probe(ip1, 1)
		}
		if predicted < 150 {
			t.Errorf("%s: predicted only %d/200 fixed-bank loads", name, predicted)
		}
		if predicted > 0 && correct < predicted*98/100 {
			t.Errorf("%s: accuracy %d/%d on fixed-bank loads", name, correct, predicted)
		}
	}
}

func TestAbstainsOnRandomBanks(t *testing.T) {
	// A load with a random bank must mostly abstain (or at least not be
	// confidently wrong) — abstention is what keeps accuracy high.
	for name, p := range allBankPredictors() {
		if name == "Addr" {
			continue // exercised separately with real addresses
		}
		rng := rand.New(rand.NewSource(3))
		ip := uint64(0x400300)
		predicted := 0
		for i := 0; i < 1000; i++ {
			if _, ok := p.Predict(ip); ok && i > 100 {
				predicted++
			}
			p.Update(ip, rng.Intn(2))
		}
		if predicted > 600 {
			t.Errorf("%s: predicted %d/900 random-bank loads (should abstain more)", name, predicted)
		}
	}
}

func TestAddrBankFollowsStride(t *testing.T) {
	banking := cache.DefaultBanking()
	a := NewAddrBank(banking)
	ip := uint64(0x400100)
	// Stride 64: the bank alternates every access; only an address predictor
	// can track this exactly.
	for i := 0; i < 20; i++ {
		a.UpdateAddr(ip, uint64(0x10000+i*64))
	}
	correct, predicted := 0, 0
	for i := 20; i < 120; i++ {
		addr := uint64(0x10000 + i*64)
		if b, ok := a.Predict(ip); ok {
			predicted++
			if b == banking.BankOf(addr) {
				correct++
			}
		}
		a.UpdateAddr(ip, addr)
	}
	if predicted < 90 {
		t.Fatalf("addr predictor abstained too much: %d/100", predicted)
	}
	if correct != predicted {
		t.Fatalf("addr predictor wrong on steady stride: %d/%d", correct, predicted)
	}
}

func TestStatsAccounting(t *testing.T) {
	var s Stats
	s.Record(true, true)
	s.Record(true, true)
	s.Record(true, false)
	s.Record(false, false)
	if s.Total != 4 || s.Predicted() != 3 || s.Correct != 2 || s.Wrong != 1 {
		t.Fatalf("tallies wrong: %+v", s)
	}
	if s.Rate() != 0.75 {
		t.Fatalf("rate = %v", s.Rate())
	}
	if math.Abs(s.Accuracy()-2.0/3.0) > 1e-12 {
		t.Fatalf("accuracy = %v", s.Accuracy())
	}
	if s.R() != 2 {
		t.Fatalf("R = %v", s.R())
	}
	var sum Stats
	sum.Add(s)
	sum.Add(s)
	if sum.Total != 8 || sum.Correct != 4 {
		t.Fatal("Add broken")
	}
}

func TestStatsEdgeCases(t *testing.T) {
	var s Stats
	if s.Rate() != 0 || s.Accuracy() != 0 || s.R() != 0 {
		t.Fatal("empty stats must be zero")
	}
	s.Record(true, true)
	if s.R() != 1 { // no wrongs: R clamps to Correct
		t.Fatalf("R with no wrongs = %v", s.R())
	}
}

func TestMetricProperties(t *testing.T) {
	// At penalty 0 the metric equals (almost exactly) the prediction rate
	// scaled by R/(R+1)·... — for large R it approaches P. This is how the
	// paper reads prediction rate off Figure 12.
	if m := Metric(0.7, 1000, 0); math.Abs(m-0.7) > 0.01 {
		t.Fatalf("metric at penalty 0 with huge R = %v, want ≈ rate 0.7", m)
	}
	// Perfect predictor: rate 1, no wrongs → metric 1 at any penalty.
	if m := Metric(1.0, 1e9, 5); math.Abs(m-1.0) > 0.01 {
		t.Fatalf("perfect predictor metric = %v", m)
	}
	// The metric must decrease with penalty.
	prev := math.Inf(1)
	for pen := 0.0; pen <= 10; pen++ {
		m := Metric(0.5, 30, pen)
		if m >= prev {
			t.Fatalf("metric not decreasing at penalty %v", pen)
		}
		prev = m
	}
	// A more accurate predictor (larger R) degrades more slowly.
	slopeLow := Metric(0.5, 10, 0) - Metric(0.5, 10, 5)
	slopeHigh := Metric(0.5, 100, 0) - Metric(0.5, 100, 5)
	if slopeHigh >= slopeLow {
		t.Fatalf("higher accuracy should flatten the slope: %v vs %v", slopeHigh, slopeLow)
	}
	if Metric(0.5, 0, 3) != 0 {
		t.Fatal("zero R must give zero metric")
	}
}

func TestStatsMetricConsistency(t *testing.T) {
	s := Stats{Total: 100, Correct: 49, Wrong: 1}
	if math.Abs(s.Metric(2)-Metric(0.5, 49, 2)) > 1e-12 {
		t.Fatal("Stats.Metric must match the standalone formula")
	}
}

func TestResetAll(t *testing.T) {
	for name, p := range allBankPredictors() {
		for i := 0; i < 200; i++ {
			p.Update(0x400100, 1)
		}
		p.Reset()
		if b, ok := p.Predict(0x400100); ok && b == 1 {
			t.Errorf("%s: still predicts after Reset", name)
		}
	}
}

func TestNames(t *testing.T) {
	for _, p := range allBankPredictors() {
		if p.Name() == "" {
			t.Error("empty predictor name")
		}
	}
}
