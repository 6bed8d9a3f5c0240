package hitmiss

import (
	"loadsched/internal/cache"
	"loadsched/internal/predict"
)

// LevelPredictor refines hit-miss prediction to the full hierarchy ("for
// the first level only or for all levels", §2.2): instead of a binary L1
// hit/miss, it predicts which level will service the load. Knowing that a
// load will miss L2 lets the scheduler wake dependents at the memory
// latency — and, in a multithreaded machine, is the signal §2.2 proposes
// for switching threads.
//
// A LevelPredictor still implements Predictor (PredictHit == predicted
// level is L1), so it drops into every existing configuration; the engine
// additionally consults PredictLevel when available.
type LevelPredictor interface {
	Predictor
	// PredictLevel returns the predicted servicing level.
	PredictLevel(ip, addr uint64, now int64) cache.Level
	// UpdateLevel trains with the actual level.
	UpdateLevel(ip, addr uint64, now int64, level cache.Level)
}

// TwoStage is a cascaded level predictor: one binary predictor decides
// L1-hit vs miss (exactly the §2.2 local predictor), and a second, smaller
// one decides — for predicted misses — whether the L2 will also miss.
// Misses of the second stage are rarer still, so its table can be small.
type TwoStage struct {
	l1 predict.Binary // taken = L1 miss
	l2 predict.Binary // taken = L2 miss (given an L1 miss)
}

// NewTwoStage builds the cascaded predictor with the paper's local L1
// stage and a 512-entry local L2 stage.
func NewTwoStage() *TwoStage {
	return &TwoStage{
		l1: predict.NewLocal(11, 8, 2).WithInit(0),
		l2: predict.NewLocal(9, 6, 2).WithInit(0),
	}
}

// PredictLevel implements LevelPredictor.
func (t *TwoStage) PredictLevel(ip, _ uint64, _ int64) cache.Level {
	if !t.l1.Predict(ip).Taken {
		return cache.L1
	}
	if !t.l2.Predict(ip).Taken {
		return cache.L2
	}
	return cache.Memory
}

// PredictHit implements Predictor.
func (t *TwoStage) PredictHit(ip, addr uint64, now int64) bool {
	return t.PredictLevel(ip, addr, now) == cache.L1
}

// UpdateLevel implements LevelPredictor. The second stage trains only on
// actual L1 misses — the population it predicts over.
func (t *TwoStage) UpdateLevel(ip, _ uint64, _ int64, level cache.Level) {
	t.l1.Update(ip, level != cache.L1)
	if level != cache.L1 {
		t.l2.Update(ip, level == cache.Memory)
	}
}

// Update implements Predictor; without level information a miss is assumed
// to have been serviced by L2.
func (t *TwoStage) Update(ip, addr uint64, now int64, hit bool) {
	if hit {
		t.UpdateLevel(ip, addr, now, cache.L1)
	} else {
		t.UpdateLevel(ip, addr, now, cache.L2)
	}
}

// Reset implements Predictor.
func (t *TwoStage) Reset() {
	t.l1.Reset()
	t.l2.Reset()
}

// Name implements Predictor.
func (t *TwoStage) Name() string { return "two-stage" }
