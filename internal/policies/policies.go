// Package policies is a zoo of related-work speculation policies expressed
// as ooo.SpeculationPolicy constructors — the head-to-head the ROADMAP asks
// for, made practical by the runner's described-custom-policy support. Each
// entry wraps the built-in DefaultPolicy (so ordering, bank steering and
// CHT training stay exactly the paper's §3.1 machine) and replaces the
// load-latency prediction the scheduler uses to wake dependents:
//
//   - hermes: perceptron off-chip prediction in the style of Hermes
//     (Bera et al., MICRO 2022) — multiple hashed program features vote on
//     whether the load leaves the chip entirely.
//   - cachelevel: L1/L2/memory cache-level prediction generalizing the
//     paper's binary HMP (Jalili & Erez), via the cascaded two-stage
//     predictor of internal/hitmiss.
//   - loaddelay: real-time per-IP load-delay tracking (Diavastos & Carlson)
//     — an EWMA of each load's observed latency, quantized back to the
//     nearest hierarchy level.
//
// Every policy is deterministic and fully determined by its Entry.Key plus
// the base configuration, so installed configs are memoizable by
// runner.ConfigKey, the contract DESIGN.md §12 documents.
package policies

import (
	"fmt"

	"loadsched/internal/ooo"
)

// Entry names one zoo policy.
type Entry struct {
	// Name is the short label used by Install, the tournament experiment
	// and the CLI.
	Name string
	// Key is the canonical ooo.Config.PolicyKey component: it encodes the
	// policy's algorithm and table geometry, so two configs with equal Key
	// (and equal remaining fields) simulate identically.
	Key string
	// Paper cites the related work the policy models.
	Paper string
	// build constructs the policy over the base (pre-Install) config.
	build func(base ooo.Config, deps ooo.PolicyDeps) ooo.SpeculationPolicy
}

// entries is the registry, in tournament order.
var entries = []Entry{
	{
		Name:  "hermes",
		Key:   hermesKey,
		Paper: "Bera et al., \"Hermes: Accelerating Long-Latency Load Requests via Perceptron-Based Off-Chip Load Prediction\", MICRO 2022",
		build: newHermes,
	},
	{
		Name:  "cachelevel",
		Key:   cacheLevelKey,
		Paper: "Jalili & Erez, cache-level prediction generalizing binary hit-miss prediction",
		build: newCacheLevel,
	},
	{
		Name:  "loaddelay",
		Key:   loadDelayKey,
		Paper: "Diavastos & Carlson, real-time load-delay tracking for instruction scheduling",
		build: newLoadDelay,
	},
}

// Entries returns the registry in tournament order.
func Entries() []Entry {
	out := make([]Entry, len(entries))
	copy(out, entries)
	return out
}

// Names lists the zoo policy names in tournament order.
func Names() []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.Name
	}
	return out
}

// Install rewrites cfg to run the named zoo policy: it snapshots the
// current configuration as the base machine, then sets NewPolicy to the
// entry's constructor and PolicyKey to its canonical description, making
// the result memoizable by internal/runner. The constructed
// policy reads the base snapshot, not the installed config, so later
// mutations (e.g. the runner pinning WarmupUops) do not reach it — no zoo
// policy consults WarmupUops. Installing over a config that already
// carries a custom policy is an error.
func Install(cfg *ooo.Config, name string) error {
	if cfg.NewPolicy != nil {
		return fmt.Errorf("policies: config already carries a custom policy (key %q)", cfg.PolicyKey)
	}
	for _, e := range entries {
		if e.Name != name {
			continue
		}
		base := *cfg
		cfg.PolicyKey = e.Key
		cfg.NewPolicy = func(deps ooo.PolicyDeps) ooo.SpeculationPolicy {
			return e.build(base, deps)
		}
		return nil
	}
	return fmt.Errorf("policies: unknown policy %q (have %v)", name, Names())
}
