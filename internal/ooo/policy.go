package ooo

import (
	"loadsched/internal/cache"
	"loadsched/internal/hitmiss"
	"loadsched/internal/memdep"
)

// SpeculationPolicy is the single seam through which every load-speculation
// decision reaches the pipeline. The engine consults it at three points —
// rename (collision prediction), schedule (ordering and bank steering) and
// execute (latency/level prediction) — and feeds every retired load back
// through TrainRetire. The three predictor families of the paper (memdep
// CHT schemes, hitmiss predictors, bankpred steering) are adapted onto it by
// DefaultPolicy; a new scheme is a new implementation of this interface
// (installed via Config.NewPolicy), not a cycle-loop edit.
//
// Implementations must be deterministic: the engine calls each method at
// fixed points of the cycle and records the answers in figure statistics
// that are required to be byte-identical across runs.
type SpeculationPolicy interface {
	// PredictCollision is consulted once per load at rename time; its
	// Prediction drives the ordering decision and the Figure 1/5/6
	// classification buckets.
	PredictCollision(ip uint64) memdep.Prediction

	// AllowOrdering decides at schedule time whether a ready load may
	// dispatch ahead of the older stores visible in mob. Returning false
	// holds the load in the scheduling window for this cycle.
	AllowOrdering(ld *LoadView, mob MOBView) bool

	// BeginCycle resets any per-cycle steering state (bank port claims)
	// before the scheduler walks the window.
	BeginCycle()

	// AdmitBank steers an ordering-approved load to a cache bank. The
	// decision's Admit=false holds the load; stat events and extra latency
	// ride back in the decision for the engine to apply.
	AdmitBank(ld *LoadView) BankDecision

	// PredictLevel returns the hierarchy level the scheduler assumes the
	// load is serviced from; dependents are scheduled for that latency.
	PredictLevel(ip, addr uint64, now int64) cache.Level

	// Oracle reports that PredictLevel is a perfect predictor which must be
	// granted knowledge of the actual outcome (including in-flight fills the
	// directory probe cannot see). The engine then overrides the prediction
	// with the observed level before any penalty accounting.
	Oracle() bool

	// TrainRetire feeds a retired load's observed behavior back to the
	// policy's predictors.
	TrainRetire(ev TrainEvent)
}

// LoadView is the read-only slice of a load's state a policy decision sees.
// It is handed to policies by pointer purely to keep the per-decision calls
// copy-free; the view is stack-owned by the scheduler and valid only for
// the duration of the call — policies must not retain or mutate it.
type LoadView struct {
	// IP and Addr identify the access.
	IP, Addr uint64
	// Size is the access width in bytes.
	Size int
	// OlderStores is the id of the youngest store older than this load;
	// combined with MOBView.FirstStore it bounds the stores the load could
	// conflict with.
	OlderStores int64
	// Pred is the collision prediction made for this load at rename.
	Pred memdep.Prediction
}

// MOBView is the read-only view of the memory-order buffer an ordering
// decision may consult. Store ids are dense and increase in program order.
type MOBView interface {
	// FirstStore returns the oldest in-flight store id; ids below it have
	// fully retired and cannot conflict.
	FirstStore() int64
	// StoresComplete reports whether every in-window store with id ≤ maxID
	// has dispatched its STA (and, when withSTD, its STD). A dispatched
	// half's completion time is known to the scheduler, so "dispatched" is
	// the point at which the ambiguity disappears.
	StoresComplete(maxID int64, withSTD bool) bool
	// OverlapIncomplete reports whether any in-window store with id ≤ maxID
	// overlaps [addr, addr+size) and has not completed both halves — the
	// oracle disambiguation query.
	OverlapIncomplete(maxID int64, addr uint64, size int) bool
}

// BankDecision is a policy's answer to AdmitBank.
type BankDecision struct {
	// Admit grants the load its cache access this cycle; false holds it in
	// the window without burning an issue slot.
	Admit bool
	// Delay is extra load latency imposed by the banking organization (the
	// dual scheduler's pipeline stage, or a wrong-pipe flush).
	Delay int64
	// Conflict, Mispredict and Duplicate are stat events the engine tallies
	// into Stats.BankConflicts / BankMispredicts / BankDuplicates.
	Conflict, Mispredict, Duplicate bool
}

// TrainEvent is the retire-time feedback for one load.
type TrainEvent struct {
	// IP and Addr identify the access.
	IP, Addr uint64
	// Now is the retire cycle (history-based predictors key on it).
	Now int64
	// Colliding and Distance are the load's actual collision behavior.
	Colliding bool
	Distance  int
	// Hit and Level are the actual data-cache outcome.
	Hit   bool
	Level cache.Level
}

// PolicyResetter is the optional interface a SpeculationPolicy implements to
// support engine reuse: Reset must restore the policy's construction state
// (predictor tables, histories, per-cycle claims) without invalidating the
// PolicyDeps it was built with. Engine.Reset refuses to recycle an engine
// whose policy lacks it. The built-in DefaultPolicy implements it; custom
// policies that carry no state can embed a no-op Reset to opt in.
type PolicyResetter interface {
	Reset()
}

// PolicyDeps are the engine-owned components a policy may consult: the
// simulated hierarchy (for perfect predictors probing cache state) and the
// outstanding-miss queue (for the §2.2 timing enhancement).
type PolicyDeps struct {
	Hier  *cache.Hierarchy
	MissQ *cache.MissQueue
}

// DefaultPolicy adapts the configuration's predictor stack — ordering
// Scheme+CHT, hit-miss predictor, bank predictor+policy — onto the
// SpeculationPolicy seam. It reproduces the paper's §3.1 machine exactly;
// custom policies can wrap it to override a single decision.
func DefaultPolicy(cfg Config, deps PolicyDeps) SpeculationPolicy {
	p := &defaultPolicy{
		scheme: cfg.Scheme,
		cht:    cfg.CHT,
		hmp:    cfg.HMP,
		bank:   newBankState(cfg),
	}
	if p.hmp == nil {
		p.hmp = hitmiss.AlwaysHit{}
	}
	if pp, ok := p.hmp.(*hitmiss.Perfect); ok {
		if pp.Hierarchy == nil {
			pp.Hierarchy = deps.Hier
		}
		p.oracle = true
	}
	if cfg.UseTimingHMP {
		p.hmp = hitmiss.NewTiming(p.hmp, deps.MissQ)
	}
	return p
}

// defaultPolicy is the built-in adapter behind DefaultPolicy.
type defaultPolicy struct {
	scheme memdep.Scheme
	cht    memdep.Predictor
	hmp    hitmiss.Predictor
	oracle bool
	bank   *bankState
}

func (p *defaultPolicy) PredictCollision(ip uint64) memdep.Prediction {
	if p.scheme.UsesCHT() {
		return p.cht.Lookup(ip)
	}
	return memdep.Prediction{}
}

// AllowOrdering applies the six schemes of §3.1.
func (p *defaultPolicy) AllowOrdering(ld *LoadView, mob MOBView) bool {
	switch p.scheme {
	case memdep.Traditional:
		return mob.StoresComplete(ld.OlderStores, false)
	case memdep.Opportunistic:
		return true
	case memdep.Postponing:
		if !mob.StoresComplete(ld.OlderStores, false) {
			return false
		}
		if ld.Pred.Colliding {
			return mob.StoresComplete(ld.OlderStores, true)
		}
		return true
	case memdep.Inclusive:
		if ld.Pred.Colliding {
			return mob.StoresComplete(ld.OlderStores, true)
		}
		return true
	case memdep.Exclusive:
		if ld.Pred.Colliding {
			// Wait only for stores at the predicted distance or farther.
			maxID := ld.OlderStores
			if d := ld.Pred.Distance; d != memdep.NoDistance {
				if d < 0 {
					// A negative distance carries no usable store identity;
					// computing maxID from it could overflow int64, so treat
					// it like NoDistance and wait for every older store.
				} else if maxID = ld.OlderStores - int64(d) + 1; maxID < mob.FirstStore()-1 {
					// An over-long distance points below the oldest in-flight
					// store: nothing to wait for. Clamp instead of handing
					// StoresComplete a far-negative (or, after predictor
					// overflow, huge positive) bound to walk.
					maxID = mob.FirstStore() - 1
				}
			}
			return mob.StoresComplete(maxID, true)
		}
		return true
	default: // Perfect
		return !mob.OverlapIncomplete(ld.OlderStores, ld.Addr, ld.Size)
	}
}

func (p *defaultPolicy) BeginCycle() { p.bank.begin() }

func (p *defaultPolicy) AdmitBank(ld *LoadView) BankDecision { return p.bank.admit(ld) }

func (p *defaultPolicy) PredictLevel(ip, addr uint64, now int64) cache.Level {
	if lp, ok := p.hmp.(hitmiss.LevelPredictor); ok {
		return lp.PredictLevel(ip, addr, now)
	}
	if p.hmp.PredictHit(ip, addr, now) {
		return cache.L1
	}
	return cache.L2
}

func (p *defaultPolicy) Oracle() bool { return p.oracle }

// Reset implements PolicyResetter: every predictor table returns to
// construction state in place. The Timing wrapper's queue is the
// engine-owned miss queue, which Engine.Reset also resets — the double
// reset is idempotent.
func (p *defaultPolicy) Reset() {
	if p.cht != nil {
		p.cht.Reset()
	}
	p.hmp.Reset()
	p.bank.reset()
}

func (p *defaultPolicy) TrainRetire(ev TrainEvent) {
	if p.scheme.UsesCHT() {
		p.cht.Record(ev.IP, ev.Colliding, ev.Distance)
	}
	if lp, ok := p.hmp.(hitmiss.LevelPredictor); ok {
		lp.UpdateLevel(ev.IP, ev.Addr, ev.Now, ev.Level)
	} else {
		p.hmp.Update(ev.IP, ev.Addr, ev.Now, ev.Hit)
	}
	p.bank.train(ev.IP, ev.Addr)
}
