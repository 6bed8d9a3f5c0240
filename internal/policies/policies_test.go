package policies

import (
	"testing"

	"loadsched/internal/memdep"
	"loadsched/internal/ooo"
	"loadsched/internal/runner"
	"loadsched/internal/trace"
)

// baseConfig is the zoo's host machine for tests: the paper's baseline
// with the Inclusive scheme and a Full CHT, so ordering prediction and
// training are exercised alongside the level-prediction overrides.
func baseConfig() ooo.Config {
	cfg := ooo.DefaultConfig()
	cfg.Scheme = memdep.Inclusive
	cfg.CHT = memdep.NewFullCHT(2048, 4, 2, true)
	return cfg
}

func twoProfiles(t *testing.T) (trace.Profile, trace.Profile) {
	t.Helper()
	for _, g := range trace.Groups() {
		if len(g.Traces) >= 2 {
			return g.Traces[0], g.Traces[1]
		}
	}
	t.Fatal("no trace group with two members")
	return trace.Profile{}, trace.Profile{}
}

func TestInstallErrors(t *testing.T) {
	cfg := baseConfig()
	if err := Install(&cfg, "no-such-policy"); err == nil {
		t.Fatal("unknown policy installed without error")
	}
	if err := Install(&cfg, "hermes"); err != nil {
		t.Fatal(err)
	}
	if err := Install(&cfg, "cachelevel"); err == nil {
		t.Fatal("double install accepted")
	}
}

// TestInstalledConfigsMemoizable: every zoo policy yields a describable
// config, the keys are pairwise distinct and differ from the base machine.
func TestInstalledConfigsMemoizable(t *testing.T) {
	base, ok := runner.ConfigKey(baseConfig())
	if !ok {
		t.Fatal("base config must be memoizable")
	}
	seen := map[string]string{"": "base", base: "base"}
	for _, name := range Names() {
		cfg := baseConfig()
		if err := Install(&cfg, name); err != nil {
			t.Fatal(err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: installed config invalid: %v", name, err)
		}
		k, ok := runner.ConfigKey(cfg)
		if !ok {
			t.Fatalf("%s: installed config not memoizable", name)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("%s shares memo key with %s", name, prev)
		}
		seen[k] = name
	}
}

// TestZooDeterministic: two freshly built engines per policy must agree
// bit for bit — the determinism half of the PolicyKey promise.
func TestZooDeterministic(t *testing.T) {
	p, _ := twoProfiles(t)
	for _, name := range Names() {
		run := func() ooo.Stats {
			cfg := baseConfig()
			cfg.WarmupUops = 500
			if err := Install(&cfg, name); err != nil {
				t.Fatal(err)
			}
			return ooo.NewEngine(cfg, trace.Replay(p)).Run(3_000)
		}
		if a, b := run(), run(); a != b {
			t.Fatalf("%s: repeated runs diverged\nfirst:  %+v\nsecond: %+v", name, a, b)
		}
	}
}

// TestZooOverridesReachEngine: each zoo policy must actually change the
// schedule relative to the base machine — a policy whose override never
// reaches the engine would silently race as a copy of the default.
func TestZooOverridesReachEngine(t *testing.T) {
	p, _ := twoProfiles(t)
	mk := func(name string) ooo.Stats {
		cfg := baseConfig()
		cfg.WarmupUops = 500
		if name != "" {
			if err := Install(&cfg, name); err != nil {
				t.Fatal(err)
			}
		}
		return ooo.NewEngine(cfg, trace.Replay(p)).Run(10_000)
	}
	base := mk("")
	for _, name := range Names() {
		if got := mk(name); got == base {
			t.Fatalf("%s: statistics identical to the default policy", name)
		}
	}
}

// TestZooResetReuse extends the PR 5 reset-reuse property to every zoo
// policy: an engine dirtied on one workload, Reset, and rerun must produce
// bit-identical Stats to a freshly built engine — the contract that lets
// the runner's engine pool recycle zoo engines.
func TestZooResetReuse(t *testing.T) {
	target, other := twoProfiles(t)
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			const warmup, uops = 500, 3_000
			mk := func() ooo.Config {
				cfg := baseConfig()
				cfg.WarmupUops = warmup
				if err := Install(&cfg, name); err != nil {
					t.Fatal(err)
				}
				return cfg
			}
			fresh := ooo.NewEngine(mk(), trace.Replay(target)).Run(uops)

			e := ooo.NewEngine(mk(), trace.Replay(other))
			e.Run(uops)
			if !e.Reset(trace.Replay(target)) {
				t.Fatalf("Reset refused for zoo policy %s", name)
			}
			if reused := e.Run(uops); reused != fresh {
				t.Errorf("reused engine diverged from fresh engine\nfresh:  %+v\nreused: %+v", fresh, reused)
			}

			if !e.Reset(trace.Replay(target)) {
				t.Fatal("second Reset refused")
			}
			if again := e.Run(uops); again != fresh {
				t.Errorf("second reuse diverged\nfresh: %+v\nagain: %+v", fresh, again)
			}
		})
	}
}

// TestZooPooledCountersProveReuse is the ISSUE 6 acceptance criterion: a
// sweep containing described zoo policies shows nonzero memo hits and
// engine reuses in the runner counters.
func TestZooPooledCountersProveReuse(t *testing.T) {
	// One worker makes reuse deterministic: the two traces of each policy
	// run back-to-back, so the second always finds the first's parked
	// engine. (With N workers same-key jobs can run concurrently and each
	// build fresh; parallel reuse is the runner's own tests' concern.)
	a, b := twoProfiles(t)
	pool := runner.NewIsolated(1, runner.NewCache())
	var jobs []runner.Job
	for _, name := range Names() {
		m := runner.NewMachine(func() ooo.Config {
			cfg := baseConfig()
			if err := Install(&cfg, name); err != nil {
				t.Error(err)
			}
			return cfg
		}, 500)
		for _, prof := range []trace.Profile{a, b} {
			jobs = append(jobs, runner.Job{Machine: m, Profile: prof, Uops: 3_000})
		}
	}
	first := pool.Run(jobs)
	second := pool.Run(jobs) // every job now memoized
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("job %d: memoized rerun diverged", i)
		}
	}
	c := pool.Counters()
	if c.Uncached != 0 {
		t.Fatalf("Uncached = %d, want 0 (zoo configs must be describable)", c.Uncached)
	}
	if c.MemoHits+c.Coalesced < int64(len(jobs)) {
		t.Fatalf("MemoHits(%d)+Coalesced(%d) < %d: second sweep was not served from cache",
			c.MemoHits, c.Coalesced, len(jobs))
	}
	if c.EngineReuses == 0 {
		t.Fatal("EngineReuses = 0: zoo engines were never recycled")
	}
}
