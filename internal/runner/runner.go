// Package runner executes independent trace-driven simulations on a bounded
// worker pool with deterministic, order-preserving result collection, plus a
// keyed memoization cache so identical (machine, trace, length) runs — most
// notably the Traditional baseline shared by every figure and sweep — are
// simulated exactly once per process.
//
// A Machine handle carries one machine point's keys, derived once; jobs
// pair it with a workload. Pool.Run is the one batch path: it groups a job
// list by workload into units, each of which renders its workload's key
// text once and runs its jobs back to back on the path Pool.Do takes.
//
// Determinism: each simulation is a pure function of its Job (the engine,
// trace generator and predictors share no mutable state across instances),
// so executing a job list on 1 worker or N workers yields identical result
// slices; only wall-clock time changes. The experiment drivers build their
// tables from those slices in job order, which keeps rendered output
// byte-identical across -j settings.
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"loadsched/internal/ooo"
	"loadsched/internal/store"
	"loadsched/internal/trace"
)

// Machine is one machine point, shared by every job that simulates it: the
// configuration builder and warmup length, plus the keys derived from them
// once in NewMachine. Drivers build one per point and submit it with each
// of the point's traces, so no job re-derives a key. A Machine is
// read-only after NewMachine and safe to share between goroutines.
type Machine struct {
	build  func() ooo.Config
	warmup int
	// ok is false when the built configuration has no canonical
	// description (ConfigKey), and the machine's jobs then run uncached.
	ok bool
	// head opens the store key of every job on the machine: everything up
	// to the profile's key text (see appendKeyHead and memoKey).
	head string
}

// NewMachine derives the machine's keys from one call of build. build is
// called again for every simulation and MUST return an equal, freshly
// built Config each time: predictors (CHT, HMP, bank predictor) are
// stateful and trained during the run, and the engine itself patches
// oracle predictors in place, so a Config may never be shared between
// executions. The runner owns Config.WarmupUops: every
// build's value is overwritten with warmup.
func NewMachine(build func() ooo.Config, warmup int) *Machine {
	m := &Machine{build: build, warmup: warmup}
	if desc, ok := ConfigKey(m.Config()); ok {
		var scratch [keyScratch]byte
		m.head, m.ok = string(appendKeyHead(scratch[:0], desc)), true
	}
	return m
}

// Config builds a fresh configuration of the machine, warmup included.
func (m *Machine) Config() ooo.Config {
	cfg := m.build()
	cfg.WarmupUops = m.warmup
	return cfg
}

// Job is one simulation request: a machine point, a synthetic workload and
// the measured length (the warmup length is the machine's).
type Job struct {
	// Machine is the machine point, shared by the point's jobs; required.
	Machine *Machine
	// Profile is the synthetic workload to simulate; required. Jobs only
	// read it, so every job of a trace may point at one profile.
	Profile *trace.Profile
	// Uops is the measured length.
	Uops int
}

// Pool is a bounded-concurrency simulation executor. The zero value is not
// usable; construct with New or NewIsolated.
type Pool struct {
	workers int
	cache   *Cache
	m       metrics
}

// Counters is a point-in-time snapshot of a pool's observability counters:
// what the pool actually did, as opposed to what it was asked for. Jobs
// splits into Simulated + MemoHits + DiskHits + Coalesced (Uncached jobs
// are the subset of Simulated that ran outside the cache);
// SimTime is wall time spent inside simulations summed over jobs, so it
// exceeds elapsed time when workers overlap. The counts other than Jobs and
// MapTasks can vary with timing (a concurrent duplicate lands as MemoHits
// or Coalesced depending on who wins the race), which is why they surface
// only through explicit observability paths (-v), never in deterministic
// output.
type Counters struct {
	// Jobs is the number of simulations requested through Do.
	Jobs int64
	// Simulated jobs actually ran an engine (memo misses plus Uncached).
	Simulated int64
	// MemoHits were served from a completed in-memory cache entry.
	MemoHits int64
	// DiskHits were served from the persistent result store (no simulation
	// ran in this or any process; see Cache.SetStore).
	DiskHits int64
	// Coalesced waited on an identical in-flight simulation (single-flight).
	Coalesced int64
	// Uncached ran outside the cache: non-describable configs.
	Uncached int64
	// MapTasks counts fan-out units dispatched through Map. Run submits one
	// task per unit (a group of same-workload jobs run back to back), so
	// for Run job lists this counts units, not jobs.
	MapTasks int64
	// EngineBuilds counts the engines constructed: every simulation builds
	// its own, so it equals Simulated. EngineReuses is always 0; it remains
	// only because benchmark reports still read it.
	EngineBuilds, EngineReuses int64
	// SimTime is wall time spent inside simulations, summed over the jobs
	// that ran an engine (cache hits add nothing); it exceeds elapsed time
	// when workers overlap.
	SimTime time.Duration
}

// metrics is the pool-internal atomic counter block behind Counters.
type metrics struct {
	jobs, simulated, memoHits, diskHits, coalesced, uncached, mapTasks, simNanos atomic.Int64
}

// Counters snapshots the pool's observability counters.
func (p *Pool) Counters() Counters {
	return Counters{
		Jobs:         p.m.jobs.Load(),
		Simulated:    p.m.simulated.Load(),
		MemoHits:     p.m.memoHits.Load(),
		DiskHits:     p.m.diskHits.Load(),
		Coalesced:    p.m.coalesced.Load(),
		Uncached:     p.m.uncached.Load(),
		MapTasks:     p.m.mapTasks.Load(),
		EngineBuilds: p.m.simulated.Load(),
		SimTime:      time.Duration(p.m.simNanos.Load()),
	}
}

// CacheLen reports the pool's memo cache size (0 for cache-free pools).
func (p *Pool) CacheLen() int {
	if p.cache == nil {
		return 0
	}
	return p.cache.Len()
}

// DiskCounters snapshots the persistent store's counters when the pool's
// cache is store-backed. The numbers are store-wide (the store is typically
// shared process-wide), unlike the per-pool Counters.
func (p *Pool) DiskCounters() (store.Counters, bool) {
	if p.cache == nil {
		return store.Counters{}, false
	}
	s := p.cache.Store()
	if s == nil {
		return store.Counters{}, false
	}
	return s.Counters(), true
}

// New returns a pool with the given concurrency bound that memoizes on the
// process-wide shared cache. workers <= 0 selects GOMAXPROCS; workers == 1
// executes jobs serially on the calling goroutine.
func New(workers int) *Pool {
	return &Pool{workers: workers, cache: shared}
}

// NewIsolated returns a pool with its own cache (or none, when cache is
// nil — every job then simulates from scratch). Benchmarks and determinism
// tests use isolated pools so runs do not share results through the
// process-wide cache.
func NewIsolated(workers int, cache *Cache) *Pool {
	return &Pool{workers: workers, cache: cache}
}

// Workers resolves the pool's concurrency bound.
func (p *Pool) Workers() int {
	if p.workers > 0 {
		return p.workers
	}
	return runtime.GOMAXPROCS(0)
}

// Do executes one job, through the memoization cache when its machine is
// describable (see ConfigKey). It renders the job's profile key text and
// takes the same path as each job of Run.
func (p *Pool) Do(j Job) ooo.Stats {
	return p.do(&j, profileText(j.Profile))
}

// profileText renders the key text of *prof.
func profileText(prof *trace.Profile) string {
	var scratch [keyScratch]byte
	return string(appendProfileText(scratch[:0], prof))
}

// do executes one job whose profile key text is prof. Every simulation
// builds its own engine, so a pool holds no engine once a job returns; a
// hit costs the lookup and no build.
func (p *Pool) do(j *Job, prof string) ooo.Stats {
	p.m.jobs.Add(1)
	m := j.Machine
	run := func() ooo.Stats {
		start := time.Now()
		st := ooo.NewEngine(m.Config(), trace.Replay(*j.Profile)).Run(j.Uops)
		p.m.simNanos.Add(time.Since(start).Nanoseconds())
		p.m.simulated.Add(1)
		return st
	}
	if p.cache == nil || !m.ok {
		p.m.uncached.Add(1)
		return run()
	}
	st, how := p.cache.do(memoKey{head: m.head, prof: prof, uops: j.Uops, warmup: m.warmup}, run)
	switch how {
	case memoHit:
		p.m.memoHits.Add(1)
	case diskHit:
		p.m.diskHits.Add(1)
	case coalesced:
		p.m.coalesced.Add(1)
	}
	return st
}

// Run executes every job and returns their statistics in job order,
// regardless of completion order. Jobs are grouped by Profile into units
// (see batchUnits); each unit is one Map task that renders its profile's
// key text once and runs its jobs in order through the same path as Do,
// so results are identical to submitting each job through Do. Identical
// jobs (equal keys) are simulated once and share the result: a repeat
// inside a unit is a memo hit, one in flight on another unit coalesces
// onto it.
func (p *Pool) Run(jobs []Job) []ooo.Stats {
	out := make([]ooo.Stats, len(jobs))
	units := batchUnits(jobs, p.Workers())
	Map(p, len(units), func(u int) struct{} {
		prof := profileText(jobs[units[u][0]].Profile)
		for _, i := range units[u] {
			out[i] = p.do(&jobs[i], prof)
		}
		return struct{}{}
	})
	return out
}

// batchUnits groups job indexes by Profile in first-seen order and chunks
// each group into units of ceil(total/workers), clamped to [1, 16]. Units
// are Map's scheduling grain: a unit renders its profile's key text once
// and keeps one worker on one recording, so consecutive jobs replay chunks
// that are already resident, and it hands off to Map once per unit rather
// than once per job. Groups are found by Seed and confirmed by comparing
// profiles (jobs sharing a profile pointer need no comparison), so no
// profile is hashed.
func batchUnits(jobs []Job, workers int) [][]int {
	size := (len(jobs) + workers - 1) / workers
	if size > 16 {
		size = 16
	}
	if size < 1 {
		size = 1
	}
	var groups [][]int          // job indexes per distinct profile
	bySeed := map[int64][]int{} // Seed -> indexes into groups
	for i := range jobs {
		prof := jobs[i].Profile
		g := -1
		for _, c := range bySeed[prof.Seed] {
			if q := jobs[groups[c][0]].Profile; q == prof || *q == *prof {
				g = c
				break
			}
		}
		if g < 0 {
			g = len(groups)
			groups = append(groups, nil)
			bySeed[prof.Seed] = append(bySeed[prof.Seed], g)
		}
		groups[g] = append(groups[g], i)
	}
	var units [][]int
	for _, idxs := range groups {
		for len(idxs) > size {
			units = append(units, idxs[:size])
			idxs = idxs[size:]
		}
		if len(idxs) > 0 {
			units = append(units, idxs)
		}
	}
	return units
}

// Map evaluates fn(0..n-1) on the pool's workers and returns the results in
// index order. It is the generic fan-out primitive behind Pool.Run, used
// directly by experiments whose unit of work is not a plain engine run
// (event-stream capture, statistical predictor replays). A panic in fn
// reaches the caller at any worker count: a worker recovers it and keeps
// draining, no further index is handed out, and the first panic value is
// re-raised on the calling goroutine once every worker has returned.
func Map[T any](p *Pool, n int, fn func(int) T) []T {
	out := make([]T, n)
	p.m.mapTasks.Add(int64(n))
	w := p.Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	var (
		wg       sync.WaitGroup
		first    sync.Once
		failed   atomic.Bool
		panicVal any
	)
	call := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				first.Do(func() { panicVal = r })
				failed.Store(true)
			}
		}()
		out[i] = fn(i)
	}
	idx := make(chan int)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				call(i)
			}
		}()
	}
	for i := 0; i < n && !failed.Load(); i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if failed.Load() {
		panic(panicVal)
	}
	return out
}
