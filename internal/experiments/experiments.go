// Package experiments reproduces every figure of the paper's evaluation
// (§4): each FigN function runs the corresponding workloads through the
// simulator (or through the statistical replay harness, where the paper's
// evaluation was statistical) and returns both structured results and a
// rendered text table. EXPERIMENTS.md records the paper-vs-measured
// comparison for each.
//
// Every figure executes its independent simulations through
// internal/runner: a bounded worker pool (Options.Workers) with
// order-preserving collection and a process-wide memoization cache, so the
// Traditional baseline shared by Figures 5–8 (and by repeated sweeps) is
// simulated exactly once per process. Tables are assembled from results in
// job order, which keeps rendered output byte-identical across worker
// counts.
package experiments

import (
	"loadsched/internal/memdep"
	"loadsched/internal/ooo"
	"loadsched/internal/runner"
	"loadsched/internal/trace"
	"loadsched/internal/uop"
)

// NoWarmup is the sentinel for an explicitly zero warmup region. A Warmup
// of 0 means "default" wherever defaults apply (the CLI, the facade);
// negative values always mean "no warmup at all".
const NoWarmup = -1

// Options scale every experiment. Benchmarks use small values; the CLI
// defaults are large enough for stable percentages.
type Options struct {
	// Uops is the number of measured uops per trace.
	Uops int
	// Warmup is the number of uops simulated before measurement, letting
	// caches and predictors reach steady state. Negative values (NoWarmup)
	// request an explicitly empty warmup region.
	Warmup int
	// TracesPerGroup caps how many traces of each group run (0 = all).
	TracesPerGroup int
	// Workers bounds the number of concurrent simulations (0 = GOMAXPROCS,
	// 1 = serial). Results are identical for every setting; only wall-clock
	// time changes.
	Workers int
	// Pool, when non-nil, overrides the simulation pool (and with it the
	// memoization cache) the experiments run on. Tests and benchmarks use
	// isolated pools; nil selects a pool of Workers workers sharing the
	// process-wide cache.
	Pool *runner.Pool

	// exec, when set, stands in for the pool on every job list a driver
	// submits; tests use it to capture the jobs without simulating them.
	exec func([]runner.Job) []ooo.Stats
}

// DefaultOptions is the CLI default: every trace, 200K measured uops each.
func DefaultOptions() Options {
	return Options{Uops: 200_000, Warmup: 40_000}
}

// Quick is a fast configuration for tests and short benchmark runs.
func Quick() Options {
	return Options{Uops: 60_000, Warmup: 15_000, TracesPerGroup: 2}
}

// EffectiveWarmup resolves the warmup sentinel: negative Warmup means zero.
func (o Options) EffectiveWarmup() int {
	if o.Warmup < 0 {
		return 0
	}
	return o.Warmup
}

// pool resolves the simulation pool the experiment runs on.
func (o Options) pool() *runner.Pool {
	if o.Pool != nil {
		return o.Pool
	}
	return runner.New(o.Workers)
}

// traces returns the group's traces under the cap.
func (o Options) traces(g trace.Group) []trace.Profile {
	if o.TracesPerGroup > 0 && o.TracesPerGroup < len(g.Traces) {
		return g.Traces[:o.TracesPerGroup]
	}
	return g.Traces
}

// groupTraces resolves a group by name and applies the cap.
func (o Options) groupTraces(name string) []trace.Profile {
	g, ok := trace.GroupByName(name)
	if !ok {
		panic("experiments: unknown group " + name)
	}
	return o.traces(g)
}

// machine wraps one machine point for the runner: its keys are derived
// once, and every trace's job on the point shares it. build must construct
// a fresh Config on every call (predictors are stateful).
func (o Options) machine(build func() ooo.Config) *runner.Machine {
	return runner.NewMachine(build, o.EffectiveWarmup())
}

// schemeMachine is the common case: the §3.1 baseline machine under one
// ordering scheme. Every figure that shares the Traditional baseline
// builds it through here, so the memo keys coincide across figures.
func (o Options) schemeMachine(s memdep.Scheme) *runner.Machine {
	return o.machine(func() ooo.Config { return baseConfig(s) })
}

// addJobs appends one job per trace on machine m.
func (o Options) addJobs(jobs []runner.Job, m *runner.Machine, traces []trace.Profile) []runner.Job {
	for _, p := range traces {
		jobs = append(jobs, runner.Job{Machine: m, Profile: p, Uops: o.Uops})
	}
	return jobs
}

// run executes one driver's job list on the experiment's pool.
func (o Options) run(jobs []runner.Job) []ooo.Stats {
	if o.exec != nil {
		return o.exec(jobs)
	}
	return o.pool().Run(jobs)
}

// baseConfig is the §3.1 machine with the given ordering scheme; CHT-based
// schemes get the paper's reference predictor (2K-entry 4-way Full CHT with
// 2-bit counters and distance tracking).
func baseConfig(s memdep.Scheme) ooo.Config {
	cfg := ooo.DefaultConfig()
	cfg.Scheme = s
	if s.UsesCHT() {
		cfg.CHT = memdep.NewFullCHT(2048, 4, 2, true)
	}
	return cfg
}

// replayUops streams exactly total uops of p through fn in whole decoded
// chunks — read-only views straight out of the shared recording, no per-uop
// copy or cursor call. base is the stream index of us[0]; the statistical
// figures use it to tell warmup uops from measured ones.
func replayUops(p trace.Profile, total int, fn func(us []uop.UOp, base int)) {
	g := trace.Replay(p)
	for seen := 0; seen < total; {
		us, _, _ := g.NextBatchRef()
		if n := total - seen; len(us) > n {
			us = us[:n]
		}
		fn(us, seen)
		seen += len(us)
	}
}
