package predict

import "testing"

func TestTournamentLearnsFixedBehavior(t *testing.T) {
	tr := NewTournament(NewBimodal(10, 2), NewGShare(10, 8, 2), 10)
	testLearnsFixedBehavior(t, tr, "tournament(bimodal,gshare)")
}

func TestTournamentSelectsBetterComponent(t *testing.T) {
	// Key A behaves per-address (bimodal wins); key B's outcome equals key
	// A's previous outcome (gshare wins). The tournament must learn to use
	// the right component for each.
	tr := NewTournament(NewBimodal(10, 2), NewGShare(12, 12, 2), 10)
	// Period-4 cycle: with interleaved updates the pattern spans 8 history
	// outcomes, well within the 12-outcome gshare history.
	outcomes := []bool{true, false, false, true}
	// Warmup with a deterministic cycle so both patterns are learnable.
	pos := 0
	// Each key is scored immediately before its own update, so the global
	// history at query time matches training time.
	step := func(score *int, total *int) {
		a := outcomes[pos%len(outcomes)]
		pos++
		if score != nil {
			if tr.Predict(0xA0).Taken == true {
				*score++
			}
			*total++
		}
		tr.Update(0xA0, true) // key A: always taken → bimodal perfect
		if score != nil {
			if tr.Predict(0xB0).Taken == a {
				*score++
			}
			*total++
		}
		tr.Update(0xB0, a) // key B: follows the cycle → gshare learns it
	}
	for i := 0; i < 4000; i++ {
		step(nil, nil)
	}
	score, total := 0, 0
	for i := 0; i < 1000; i++ {
		step(&score, &total)
	}
	if acc := float64(score) / float64(total); acc < 0.95 {
		t.Fatalf("tournament accuracy %.3f on mixed workload", acc)
	}
}

func TestTournamentChooserOnlyTrainsOnDisagreement(t *testing.T) {
	// With two identical always-agreeing components the chooser must stay
	// at its initial state.
	a, b := &constPred{taken: true}, &constPred{taken: true}
	tr := NewTournament(a, b, 4)
	before := make([]uint8, len(tr.chooser.v))
	copy(before, tr.chooser.v)
	for i := 0; i < 50; i++ {
		tr.Update(uint64(i), true)
	}
	for i := range tr.chooser.v {
		if tr.chooser.v[i] != before[i] {
			t.Fatal("chooser trained despite agreement")
		}
	}
}
