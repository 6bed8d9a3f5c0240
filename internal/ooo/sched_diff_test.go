package ooo

import (
	"fmt"
	"math/rand"
	"testing"

	"loadsched/internal/bankpred"
	"loadsched/internal/cache"
	"loadsched/internal/hitmiss"
	"loadsched/internal/memdep"
	"loadsched/internal/trace"
)

// Differential property test for the event-driven scheduling core: the
// wakeup-list scheduler plus idle-cycle fast-forward (the default) and the
// retained naive full-window walk (Engine.naive) must agree exactly — same
// Stats, same cycle count, same CPI stack — on randomized workloads across
// every ordering scheme, window size and speculation feature.

// diffCase is one randomized machine+workload configuration.
type diffCase struct {
	name  string
	prof  trace.Profile
	build func() Config
}

// diffProfiles returns short synthetic workloads with varied memory
// behavior (collision rates, miss rates, branch bias) under different seeds.
func diffProfiles(rng *rand.Rand, n int) []trace.Profile {
	out := make([]trace.Profile, n)
	for i := range out {
		out[i] = trace.Profile{
			Name:          fmt.Sprintf("diff-%d", i),
			Seed:          rng.Int63(),
			SlowStoreFrac: 0.1 + 0.6*rng.Float64(),
			SlowAddrFrac:  0.1 + 0.7*rng.Float64(),
			LoadFrac:      0.15 + 0.25*rng.Float64(),
			StoreFrac:     0.08 + 0.12*rng.Float64(),
			ChaseFrac:     0.05 + 0.4*rng.Float64(),
			// Small working sets keep miss behavior varied at short lengths.
			ChaseWorkingSet:  16 << uint(10+rng.Intn(3)),
			StreamWorkingSet: 32 << 10,
			BranchTakenBias:  0.3 + 0.5*rng.Float64(),
		}
	}
	return out
}

// diffConfig builds a randomized machine configuration exercising every
// scheduler-relevant feature: all six ordering schemes, window/pool sizes,
// port counts, hit-miss predictors (incl. timing-enhanced), recovery
// bubbles (incl. zero) and banking.
func diffConfig(rng *rand.Rand) func() Config {
	seed := rng.Int63()
	return func() Config {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		schemes := memdep.Schemes()
		cfg.Scheme = schemes[rng.Intn(len(schemes))]
		if cfg.Scheme.UsesCHT() {
			cfg.CHT = memdep.NewFullCHT(256, 2, 2, true)
		}
		cfg.Window = []int{8, 16, 32, 64}[rng.Intn(4)]
		cfg.RenamePool = cfg.Window * (1 + rng.Intn(3))
		cfg.FetchWidth = 1 + rng.Intn(6)
		cfg.RetireWidth = 1 + rng.Intn(6)
		cfg.IntUnits = 1 + rng.Intn(2)
		cfg.MemUnits = 1 + rng.Intn(2)
		cfg.STDPorts = 1 + rng.Intn(2)
		switch rng.Intn(4) {
		case 1:
			cfg.HMP = hitmiss.NewLocal()
		case 2:
			cfg.HMP = hitmiss.NewChooser()
			cfg.UseTimingHMP = true
		case 3:
			cfg.HMP = &hitmiss.Perfect{}
		}
		cfg.CollisionRecoveryBubble = rng.Intn(12)
		cfg.MissRecoveryBubble = rng.Intn(12)
		cfg.CollisionPenalty = rng.Intn(10)
		cfg.MissReplayPenalty = rng.Intn(12)
		cfg.FrontEndRefill = rng.Intn(5)
		// Two draws that select nothing: consuming them keeps every later
		// field of every case at the value it has always had.
		if cfg.Scheme == memdep.Exclusive {
			rng.Intn(2)
		}
		rng.Intn(4)
		if rng.Intn(3) == 0 {
			cfg.Banking = cache.DefaultBanking()
			cfg.BankPolicy = []BankPolicy{
				BankConventional, BankPredictive, BankSliced, BankDualScheduled,
			}[rng.Intn(4)]
			if cfg.BankPolicy == BankPredictive || cfg.BankPolicy == BankSliced {
				cfg.BankPredictor = bankpred.NewPredictorC()
			}
		}
		return cfg
	}
}

// TestEventSchedulerMatchesNaive is the differential property test pinning
// the event-driven core to the reference walk.
func TestEventSchedulerMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(0xd1ff))
	profiles := diffProfiles(rng, 6)

	var cases []diffCase
	for i := 0; i < 24; i++ {
		cases = append(cases, diffCase{
			name:  fmt.Sprintf("random-%d", i),
			prof:  profiles[rng.Intn(len(profiles))],
			build: diffConfig(rng),
		})
	}
	// Fixed corner cases the random draw may miss.
	cases = append(cases,
		diffCase{"zero-bubbles", profiles[0], func() Config {
			cfg := DefaultConfig()
			cfg.Scheme = memdep.Opportunistic
			cfg.CollisionRecoveryBubble = 0
			cfg.MissRecoveryBubble = 0
			cfg.FrontEndRefill = 0
			return cfg
		}},
		diffCase{"tiny-machine", profiles[1], func() Config {
			cfg := DefaultConfig()
			cfg.FetchWidth, cfg.RetireWidth = 1, 1
			cfg.Window, cfg.RenamePool = 8, 8
			cfg.IntUnits, cfg.MemUnits, cfg.FPUnits, cfg.ComplexUnits, cfg.STDPorts = 1, 1, 1, 1, 1
			return cfg
		}},
		diffCase{"perfect-oracle", profiles[2], func() Config {
			cfg := DefaultConfig()
			cfg.Scheme = memdep.Perfect
			cfg.HMP = &hitmiss.Perfect{}
			return cfg
		}},
	)

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			const warmup, uops = 1000, 4000
			run := func(naive bool) Stats {
				cfg := tc.build()
				cfg.WarmupUops = warmup
				e := NewEngine(cfg, trace.Replay(tc.prof))
				e.naive = naive
				return e.Run(uops)
			}
			event, naive := run(false), run(true)
			if event != naive {
				t.Errorf("event-driven and naive schedulers diverged\nevent: %+v\nnaive: %+v", event, naive)
			}
			if got, want := event.CPI.Total(), event.Cycles; got != want {
				t.Errorf("event CPI stack sums to %d, want Cycles=%d", got, want)
			}
		})
	}
}
