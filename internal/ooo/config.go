// Package ooo implements the simulated machine of paper §3.1: a general
// out-of-order engine with a detailed memory hierarchy, driven by a trace of
// uops. It is where the three prediction techniques plug in: the memory
// ordering scheme and CHT govern when loads may dispatch relative to stores,
// the hit-miss predictor sets the latency dependents are scheduled for, and
// (as an extension) a bank predictor steers loads to cache banks.
package ooo

import (
	"fmt"

	"loadsched/internal/bankpred"
	"loadsched/internal/cache"
	"loadsched/internal/hitmiss"
	"loadsched/internal/memdep"
	"loadsched/internal/uop"
)

// Config is the machine configuration. DefaultConfig reproduces the baseline
// of §3.1.
type Config struct {
	// FetchWidth is the number of uops fetched and renamed per cycle (6).
	FetchWidth int
	// RetireWidth is the number of uops retired per cycle (6).
	RetireWidth int
	// RenamePool is the renamer register pool / instruction window (128).
	RenamePool int
	// Window is the scheduling-window (reservation station) size; the paper
	// models 8–128 with a 32-entry baseline.
	Window int

	// Execution units (baseline: 2 integer, 2 memory, 1 FP, 2 complex).
	// STDPorts bounds store-data uops per cycle; P6-style machines give the
	// store-data path its own port.
	IntUnits, MemUnits, FPUnits, ComplexUnits, STDPorts int

	// Scheme is the memory reference ordering method.
	Scheme memdep.Scheme
	// CHT is the collision predictor for the Postponing/Inclusive/Exclusive
	// schemes; ignored (may be nil) for the others.
	CHT memdep.Predictor
	// HMP is the hit-miss predictor; nil means the always-hit behavior of
	// current processors.
	HMP hitmiss.Predictor

	// UseTimingHMP wraps the configured HMP with the outstanding-miss-queue
	// timing enhancement of §2.2.
	UseTimingHMP bool

	// Hier and Lat describe the memory hierarchy and its latencies.
	Hier cache.HierarchyConfig
	Lat  cache.Latencies

	// CollisionPenalty is the extra delay on a load that was wrongly ordered
	// with a colliding store (8 cycles, §3.1).
	CollisionPenalty int
	// MissReplayPenalty is the recovery cost when dependents were scheduled
	// for a hit but the load missed (the AM-PH replay).
	MissReplayPenalty int
	// FrontEndRefill is the fetch bubble after a mispredicted branch
	// resolves.
	FrontEndRefill int
	// CollisionReplayUops is the number of dependent uops re-executed (and
	// re-charged to the integer ports) per collision, on top of the memory
	// port the load itself re-consumes. Re-execution bandwidth is one of the
	// costs §1.1 attributes to wrong memory ordering.
	CollisionReplayUops int
	// MissReplayUops is the number of speculatively issued dependents
	// re-charged per AM-PH load (the replay §2.2 describes: "up to 5
	// instructions may have started scheduling/execution").
	MissReplayUops int
	// MissRecoveryBubble stalls dispatch for this many cycles when a load
	// predicted to hit actually misses (AM-PH): the speculatively issued
	// dependents must be squashed and re-scheduled, and "the recovery
	// process is not immediate" (§2.2). A caught miss (AM-PM) costs nothing,
	// which is where hit-miss prediction earns its speedup in Figure 11.
	MissRecoveryBubble int
	// CollisionRecoveryBubble stalls dispatch for this many cycles when a
	// memory-ordering violation is detected: the scheduler must identify and
	// re-sequence the wrongly advanced load's dependence tree, and "the
	// recovery process is not immediate" (§2.2). This is what makes wrong
	// ordering expensive enough that the Opportunistic scheme loses to the
	// predictor-based ones, as in Figure 7.
	CollisionRecoveryBubble int

	// Unit latencies.
	LatIntALU, LatComplex, LatFPU, LatBranch, LatSTA, LatSTD int

	// WarmupUops are simulated before statistics are collected, letting
	// caches and predictors reach steady state.
	WarmupUops int

	// OnLoadRetire, when set, is invoked for every retired load with its
	// observed behavior. Statistical experiments (e.g. the CHT sweep of
	// Figure 9) tap this stream to evaluate many predictor configurations
	// in a single machine pass.
	OnLoadRetire func(LoadEvent)

	// NewPolicy, when set, replaces the built-in speculation policy
	// assembled from Scheme/CHT/HMP/BankPredictor/BankPolicy with a custom
	// SpeculationPolicy — the seam through which a new scheme plugs into the
	// pipeline without touching stage code. The constructor receives the
	// engine-owned hierarchy and miss queue; wrap DefaultPolicy(cfg, deps)
	// to override a single decision.
	NewPolicy func(PolicyDeps) SpeculationPolicy

	// PolicyKey canonically describes NewPolicy's product for the
	// simulation runner's memo cache. Setting it is a promise that the
	// constructed policy is deterministic and fully determined by this
	// description plus the rest of the configuration (no hidden state, no
	// ambient inputs); the runner then memoizes such configurations exactly
	// like built-in ones. A config with NewPolicy set and PolicyKey empty
	// runs unmemoized; PolicyKey without NewPolicy is rejected by Validate.
	PolicyKey string

	// Banking configures the multi-banked L1 extension; BankPolicy selects
	// how the scheduler uses it (see bank.go). Zero value disables banking.
	Banking cache.Banking
	// BankPolicy selects the banked-cache dispatch policy.
	BankPolicy BankPolicy
	// BankPredictor steers loads under BankPredictive/BankSliced (may be
	// nil, in which case every load is unpredicted).
	BankPredictor bankpred.Predictor
	// BankMispredictPenalty is the re-execution cost of a wrong-bank load in
	// the sliced pipeline.
	BankMispredictPenalty int
	// BankDualSchedLatency is the extra load latency of the
	// BankDualScheduled organization's second-level scheduler.
	BankDualSchedLatency int
}

// DefaultConfig returns the baseline machine of §3.1.
func DefaultConfig() Config {
	return Config{
		FetchWidth:  6,
		RetireWidth: 6,
		RenamePool:  128,
		Window:      32,

		IntUnits: 2, MemUnits: 2, FPUnits: 1, ComplexUnits: 2, STDPorts: 2,

		Scheme: memdep.Traditional,

		Hier: cache.DefaultHierarchyConfig(),
		Lat:  cache.DefaultLatencies(),

		CollisionPenalty:  8,
		MissReplayPenalty: 10,
		FrontEndRefill:    3,

		CollisionReplayUops: 4,
		MissReplayUops:      5,

		CollisionRecoveryBubble: 8,
		MissRecoveryBubble:      10,

		BankDualSchedLatency: 2,

		LatIntALU: 1, LatComplex: 4, LatFPU: 4, LatBranch: 1, LatSTA: 1, LatSTD: 1,

		WarmupUops: 0,
	}
}

// maxRenamePool bounds Config.RenamePool, and with it every per-slot array
// NewEngine allocates.
const maxRenamePool = 1<<16 - 1

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	switch {
	case c.FetchWidth <= 0 || c.RetireWidth <= 0:
		return fmt.Errorf("ooo: non-positive front-end widths")
	case c.RenamePool <= 0 || c.Window <= 0:
		return fmt.Errorf("ooo: non-positive window sizes")
	case c.Window > c.RenamePool:
		return fmt.Errorf("ooo: scheduling window %d exceeds rename pool %d", c.Window, c.RenamePool)
	case c.RenamePool >= maxRenamePool:
		return fmt.Errorf("ooo: rename pool %d must stay below %d", c.RenamePool, maxRenamePool)
	case c.IntUnits <= 0 || c.MemUnits <= 0 || c.FPUnits <= 0 || c.ComplexUnits <= 0 || c.STDPorts <= 0:
		return fmt.Errorf("ooo: every execution-unit count must be positive")
	case c.NewPolicy == nil && c.Scheme.UsesCHT() && c.CHT == nil:
		return fmt.Errorf("ooo: scheme %v requires a CHT", c.Scheme)
	case c.NewPolicy == nil && c.PolicyKey != "":
		return fmt.Errorf("ooo: PolicyKey %q set without NewPolicy", c.PolicyKey)
	case c.CollisionPenalty < 0 || c.MissReplayPenalty < 0 || c.FrontEndRefill < 0:
		return fmt.Errorf("ooo: negative penalty")
	case c.MissRecoveryBubble < 0 || c.CollisionRecoveryBubble < 0:
		return fmt.Errorf("ooo: negative recovery bubble")
	case c.CollisionReplayUops < 0 || c.MissReplayUops < 0:
		return fmt.Errorf("ooo: negative replay uop count")
	case c.BankMispredictPenalty < 0 || c.BankDualSchedLatency < 0:
		return fmt.Errorf("ooo: negative bank penalty")
	}
	// L1I carries no timing (traces arrive pre-fetched) but an explicitly
	// configured geometry must still be coherent; the zero value means "not
	// modelled" and is accepted.
	if c.Hier.L1I != (cache.Config{}) {
		if err := c.Hier.L1I.Validate(); err != nil {
			return err
		}
	}
	if err := c.Hier.L1D.Validate(); err != nil {
		return err
	}
	return c.Hier.L2.Validate()
}

// latencyOf returns the fixed execution latency of a non-load uop kind. A
// pointer receiver: dispatch calls it per uop, and a value receiver copies
// the whole Config each time.
func (c *Config) latencyOf(k uop.Kind) int {
	switch k {
	case uop.IntALU, uop.Nop:
		return c.LatIntALU
	case uop.Complex:
		return c.LatComplex
	case uop.FPU:
		return c.LatFPU
	case uop.Branch:
		return c.LatBranch
	case uop.STA:
		return c.LatSTA
	case uop.STD:
		return c.LatSTD
	default:
		panic("ooo: load latency is dynamic")
	}
}
