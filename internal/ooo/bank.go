package ooo

import (
	"strconv"

	"loadsched/internal/bankpred"
	"loadsched/internal/cache"
)

// BankPolicy selects how the engine models the multi-banked L1 and uses the
// bank predictor. The paper evaluates bank prediction statistically (§4.3);
// these policies are the end-to-end integration DESIGN.md lists as an
// extension, letting the conventional / predictor-scheduled / sliced
// organizations of Figure 4 be compared in one machine.
type BankPolicy int

const (
	// BankOff models an ideal (truly multi-ported) cache: no conflicts.
	BankOff BankPolicy = iota
	// BankConventional models a multi-banked cache without prediction:
	// same-cycle same-bank loads serialize, costing a stall cycle.
	BankConventional
	// BankPredictive uses the bank predictor for scheduling only: loads
	// predicted to hit a bank already claimed this cycle are held back;
	// conflicts still cost a stall when the prediction was wrong or absent.
	BankPredictive
	// BankSliced models the sliced pipeline: predicted loads go to a single
	// bank pipe (a wrong bank costs a flush and re-execution); unpredicted
	// loads are duplicated to all pipes and need every bank free.
	BankSliced
	// BankDualScheduled models the dual-scheduling designs of
	// [Simo95]/[Hunt95] (Figure 4): after address generation every load
	// enters a second-level scheduler that assigns banks conflict-free, at
	// the cost of a fixed extra latency on every load. It needs no
	// predictor — it is the complexity the sliced pipe avoids.
	BankDualScheduled
)

// String names the policy.
func (p BankPolicy) String() string {
	switch p {
	case BankOff:
		return "ideal"
	case BankConventional:
		return "conventional"
	case BankPredictive:
		return "predict-sched"
	case BankSliced:
		return "sliced"
	case BankDualScheduled:
		return "dual-scheduled"
	default:
		return "bank-policy(" + strconv.Itoa(int(p)) + ")"
	}
}

// bankState is the bank-steering half of the default speculation policy:
// per-cycle bank claims plus the predictor that steers loads. Its decisions
// are pure — stat events and delays ride back in BankDecision for the
// engine to apply.
type bankState struct {
	policy  BankPolicy
	banking cache.Banking
	pred    bankpred.Predictor
	// dualLatency / mispredictPenalty are the organization costs from the
	// machine configuration.
	dualLatency       int64
	mispredictPenalty int64
	// uses counts accesses per bank in the current cycle.
	uses []int
}

func newBankState(cfg Config) *bankState {
	b := &bankState{
		policy: cfg.BankPolicy, banking: cfg.Banking, pred: cfg.BankPredictor,
		dualLatency:       int64(cfg.BankDualSchedLatency),
		mispredictPenalty: int64(cfg.BankMispredictPenalty),
	}
	if b.policy != BankOff {
		if b.banking.Banks == 0 {
			b.banking = cache.DefaultBanking()
		}
		b.uses = make([]int, b.banking.Banks)
	}
	return b
}

func (b *bankState) begin() {
	for i := range b.uses {
		b.uses[i] = 0
	}
}

// admit decides whether a ready load may dispatch this cycle under the bank
// policy; conflict/mispredict events and extra latency ride in the decision.
func (b *bankState) admit(ld *LoadView) BankDecision {
	if b.policy == BankOff {
		return BankDecision{Admit: true}
	}
	real := b.banking.BankOf(ld.Addr)
	switch b.policy {
	case BankDualScheduled:
		// The second-level scheduler eliminates conflicts but adds its own
		// pipeline stage(s) to every load.
		return BankDecision{Admit: true, Delay: b.dualLatency}

	case BankConventional:
		if b.uses[real] > 0 {
			// The bank is taken this cycle: the access stalls and retries —
			// a lost scheduling slot, the cost bank prediction removes.
			return BankDecision{Conflict: true}
		}
		b.uses[real]++
		return BankDecision{Admit: true}

	case BankPredictive:
		predBank, ok := -1, false
		if b.pred != nil {
			predBank, ok = b.pred.Predict(ld.IP)
		}
		if ok && b.uses[predBank] > 0 {
			// The scheduler believes this bank is taken: hold the load
			// without burning the slot (prediction-guided scheduling).
			return BankDecision{}
		}
		if b.uses[real] > 0 {
			// Unpredicted (or mispredicted) conflict: stall as conventional.
			return BankDecision{Conflict: true, Mispredict: ok && predBank != real}
		}
		b.uses[real]++
		return BankDecision{Admit: true}

	default: // BankSliced
		predBank, ok := -1, false
		if b.pred != nil {
			predBank, ok = b.pred.Predict(ld.IP)
		}
		if !ok {
			// Duplicate to all pipes: every bank must be free.
			for _, u := range b.uses {
				if u > 0 {
					return BankDecision{}
				}
			}
			for i := range b.uses {
				b.uses[i]++
			}
			return BankDecision{Admit: true, Duplicate: true}
		}
		if b.uses[predBank] > 0 {
			return BankDecision{} // the predicted pipe is busy this cycle
		}
		b.uses[predBank]++
		if predBank != real {
			// Wrong pipe: the load is flushed and re-executed.
			return BankDecision{Admit: true, Delay: b.mispredictPenalty, Mispredict: true}
		}
		return BankDecision{Admit: true}
	}
}

// train updates the bank predictor with a retired load's actual bank.
func (b *bankState) train(ip, addr uint64) {
	if b.policy == BankOff || b.pred == nil {
		return
	}
	if ab, ok := b.pred.(*bankpred.AddrBank); ok {
		ab.UpdateAddr(ip, addr)
		return
	}
	b.pred.Update(ip, b.banking.BankOf(addr))
}
