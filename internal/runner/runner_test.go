package runner

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"loadsched/internal/cache"
	"loadsched/internal/hitmiss"
	"loadsched/internal/memdep"
	"loadsched/internal/ooo"
	"loadsched/internal/trace"
)

func testProfile(t *testing.T) trace.Profile {
	t.Helper()
	p, ok := trace.TraceByName(trace.GroupSysmarkNT, "ex")
	if !ok {
		t.Fatal("SysmarkNT/ex missing")
	}
	return p
}

// schemeBuild returns a builder of the default machine under scheme.
func schemeBuild(scheme memdep.Scheme) func() ooo.Config {
	return func() ooo.Config {
		cfg := ooo.DefaultConfig()
		cfg.Scheme = scheme
		if scheme.UsesCHT() {
			cfg.CHT = memdep.NewFullCHT(2048, 4, 2, true)
		}
		return cfg
	}
}

func testJob(t *testing.T, scheme memdep.Scheme) Job {
	return Job{Machine: NewMachine(schemeBuild(scheme), 1_000), Profile: testProfile(t), Uops: 5_000}
}

func TestMapOrderPreserving(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		p := NewIsolated(workers, nil)
		got := Map(p, 100, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	if got := Map(NewIsolated(4, nil), 0, func(i int) int { return i }); len(got) != 0 {
		t.Fatalf("Map over zero items returned %v", got)
	}
}

// TestMapPanicReachesCaller: a panic in fn surfaces on the calling
// goroutine at every worker count, where a recover can isolate it, instead
// of killing the process from a worker goroutine.
func TestMapPanicReachesCaller(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			var got any
			func() {
				defer func() { got = recover() }()
				Map(NewIsolated(workers, nil), 8, func(i int) int {
					if i == 3 {
						panic("boom")
					}
					return i
				})
			}()
			if got != "boom" {
				t.Fatalf("recovered %v, want boom", got)
			}
		})
	}
}

// TestCacheSingleFlight hammers one key from many goroutines and requires
// the compute function to run exactly once, with every caller seeing its
// result. Run under -race this also proves the cache is race-free.
func TestCacheSingleFlight(t *testing.T) {
	c := NewCache()
	const k = "m"
	var calls atomic.Int32
	want := ooo.Stats{Cycles: 42, Uops: 99}
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _ := c.do(k, func() ooo.Stats {
				calls.Add(1)
				return want
			})
			if got != want {
				t.Errorf("got %+v, want %+v", got, want)
			}
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", c.Len())
	}
}

// TestCacheDistinctKeys checks store keys do not collide across the
// fields of Key.
func TestCacheDistinctKeys(t *testing.T) {
	c := NewCache()
	keys := []Key{
		{Machine: "a", Uops: 1},
		{Machine: "b", Uops: 1},
		{Machine: "a", Uops: 2},
		{Machine: "a", Uops: 1, Warmup: 7},
	}
	for i, k := range keys {
		c.do(StoreKey(k), func() ooo.Stats { return ooo.Stats{Cycles: int64(i)} })
	}
	if c.Len() != len(keys) {
		t.Fatalf("cache holds %d entries, want %d", c.Len(), len(keys))
	}
	for i, k := range keys {
		got, _ := c.do(StoreKey(k), func() ooo.Stats { t.Error("recompute"); return ooo.Stats{} })
		if got.Cycles != int64(i) {
			t.Fatalf("key %d returned cycles %d", i, got.Cycles)
		}
	}
}

// TestPoolMemoizesIdenticalJobs submits the same describable job many times
// concurrently and requires exactly one simulation.
func TestPoolMemoizesIdenticalJobs(t *testing.T) {
	var builds atomic.Int32
	p := NewIsolated(8, NewCache())
	inner := schemeBuild(memdep.Traditional)
	job := testJob(t, memdep.Traditional)
	job.Machine = NewMachine(func() ooo.Config { builds.Add(1); return inner() }, 1_000)
	jobs := make([]Job, 16)
	for i := range jobs {
		jobs[i] = job
	}
	sts := p.Run(jobs)
	for i := 1; i < len(sts); i++ {
		if sts[i] != sts[0] {
			t.Fatalf("job %d diverged from job 0", i)
		}
	}
	// Build runs once in NewMachine for keying and once for the one
	// simulation, which builds the only engine; hits never build.
	if n := builds.Load(); n != 2 {
		t.Fatalf("Build called %d times for %d identical jobs, want 2", n, len(jobs))
	}
	if p.cache.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", p.cache.Len())
	}
}

// TestPoolDeterministicAcrossWorkers runs the same job list serially and on
// many workers (isolated caches) and requires identical result slices.
func TestPoolDeterministicAcrossWorkers(t *testing.T) {
	schemes := memdep.Schemes()
	mkJobs := func() []Job {
		jobs := make([]Job, 0, len(schemes)*2)
		for _, s := range schemes {
			jobs = append(jobs, testJob(t, s), testJob(t, s))
		}
		return jobs
	}
	serial := NewIsolated(1, NewCache()).Run(mkJobs())
	for _, workers := range []int{2, 8} {
		par := NewIsolated(workers, NewCache()).Run(mkJobs())
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("workers=%d: job %d diverged", workers, i)
			}
		}
	}
}

// TestConfigKeyCallbacksNotMemoizable: jobs observing per-load events must
// never share memoized results.
func TestConfigKeyCallbacksNotMemoizable(t *testing.T) {
	cfg := ooo.DefaultConfig()
	if _, ok := ConfigKey(cfg); !ok {
		t.Fatal("default config must be memoizable")
	}
	cb := cfg
	cb.OnLoadRetire = func(ooo.LoadEvent) {}
	if _, ok := ConfigKey(cb); ok {
		t.Fatal("OnLoadRetire config must not be memoizable")
	}
	cb = cfg
	cb.NewPolicy = func(ooo.PolicyDeps) ooo.SpeculationPolicy { return nil }
	if _, ok := ConfigKey(cb); ok {
		t.Fatal("undescribed custom-policy config must not be memoizable")
	}
}

// TestConfigKeyDescribedPolicy: a custom policy named by PolicyKey is
// memoizable, keys apart from the built-in policy and from other policy
// keys, and the description survives the scalar flattening.
func TestConfigKeyDescribedPolicy(t *testing.T) {
	cfg := ooo.DefaultConfig()
	base, ok := ConfigKey(cfg)
	if !ok {
		t.Fatal("default config must be memoizable")
	}
	mk := func(key string) string {
		c := cfg
		c.NewPolicy = func(d ooo.PolicyDeps) ooo.SpeculationPolicy {
			return ooo.DefaultPolicy(c, d)
		}
		c.PolicyKey = key
		k, ok := ConfigKey(c)
		if !ok {
			t.Fatalf("described custom policy %q must be memoizable", key)
		}
		return k
	}
	a, b := mk("zoo/a"), mk("zoo/b")
	if a == base || b == base {
		t.Fatal("described custom policy shares a key with the built-in policy")
	}
	if a == b {
		t.Fatal("distinct policy keys collide")
	}
}

// TestConfigKeyDistinguishesMachines: distinct machines must key apart, and
// the key must reflect predictor geometry, not just presence.
func TestConfigKeyDistinguishesMachines(t *testing.T) {
	mk := func(mut func(*ooo.Config)) string {
		cfg := ooo.DefaultConfig()
		mut(&cfg)
		k, ok := ConfigKey(cfg)
		if !ok {
			t.Fatalf("config not memoizable: %+v", cfg)
		}
		return k
	}
	seen := map[string]string{}
	for name, mut := range map[string]func(*ooo.Config){
		"default":  func(c *ooo.Config) {},
		"window64": func(c *ooo.Config) { c.Window = 64 },
		"excl2k": func(c *ooo.Config) {
			c.Scheme = memdep.Exclusive
			c.CHT = memdep.NewFullCHT(2048, 4, 2, true)
		},
		"excl512": func(c *ooo.Config) {
			c.Scheme = memdep.Exclusive
			c.CHT = memdep.NewFullCHT(512, 4, 2, true)
		},
		"hmp": func(c *ooo.Config) { c.HMP = hitmiss.NewLocal() },
	} {
		k := mk(mut)
		if prev, dup := seen[k]; dup {
			t.Fatalf("configs %q and %q share key %q", name, prev, k)
		}
		seen[k] = name
	}
}

// TestConfigKeyPresetPerfectHMPNotMemoizable: a Perfect HMP with a pre-wired
// hierarchy is external state the key cannot name.
func TestConfigKeyPresetPerfectHMPNotMemoizable(t *testing.T) {
	cfg := ooo.DefaultConfig()
	cfg.HMP = &hitmiss.Perfect{}
	if _, ok := ConfigKey(cfg); !ok {
		t.Fatal("fresh Perfect HMP must be memoizable")
	}
	pre := &hitmiss.Perfect{Hierarchy: cache.NewHierarchy(cache.DefaultHierarchyConfig())}
	cfg.HMP = pre
	if _, ok := ConfigKey(cfg); ok {
		t.Fatal("pre-wired Perfect HMP must not be memoizable")
	}
}

func TestWorkersResolution(t *testing.T) {
	if w := NewIsolated(3, nil).Workers(); w != 3 {
		t.Fatalf("Workers() = %d, want 3", w)
	}
	if w := New(0).Workers(); w < 1 {
		t.Fatalf("GOMAXPROCS pool resolved %d workers", w)
	}
}

func TestSharedCacheProcessWide(t *testing.T) {
	a, b := New(1), New(4)
	if a.cache != b.cache {
		t.Fatal("New pools must share the process-wide cache")
	}
	if a.cache == nil {
		t.Fatal("shared cache is nil")
	}
}

// TestPoolCounters pins the observability contract: identical jobs on one
// pool yield Jobs submissions but one simulation, with the remainder split
// between memo hits and coalesces; an uncacheable job lands in Uncached.
func TestPoolCounters(t *testing.T) {
	p := NewIsolated(4, NewCache())
	job := testJob(t, memdep.Traditional)

	const n = 6
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = job
	}
	p.Run(jobs)

	c := p.Counters()
	if c.Jobs != n {
		t.Fatalf("Jobs = %d, want %d", c.Jobs, n)
	}
	if c.Simulated != 1 {
		t.Fatalf("Simulated = %d, want 1 (memoized)", c.Simulated)
	}
	// The 5 non-simulating submissions split between memo hits and
	// single-flight coalesces depending on scheduling; the total is fixed.
	if c.MemoHits+c.Coalesced != n-1 {
		t.Fatalf("MemoHits(%d)+Coalesced(%d) = %d, want %d",
			c.MemoHits, c.Coalesced, c.MemoHits+c.Coalesced, n-1)
	}
	if c.Uncached != 0 {
		t.Fatalf("Uncached = %d, want 0", c.Uncached)
	}
	// Pool.Run groups same-workload jobs into units of ceil(jobs/workers)
	// and dispatches one Map task per unit: 6 identical jobs on 4 workers
	// form 3 units of 2.
	if c.MapTasks != 3 {
		t.Fatalf("MapTasks = %d, want 3", c.MapTasks)
	}
	if c.SimTime <= 0 {
		t.Fatalf("SimTime = %v, want > 0", c.SimTime)
	}
	if p.CacheLen() != 1 {
		t.Fatalf("CacheLen = %d, want 1", p.CacheLen())
	}

	// A callback-carrying job is not describable and must run uncached.
	uj := job
	uj.Machine = NewMachine(func() ooo.Config {
		cfg := schemeBuild(memdep.Traditional)()
		cfg.OnLoadRetire = func(ooo.LoadEvent) {}
		return cfg
	}, 1_000)
	p.Do(uj)
	c = p.Counters()
	if c.Uncached != 1 {
		t.Fatalf("Uncached = %d after callback job, want 1", c.Uncached)
	}
	if c.Jobs != n+1 || c.Simulated != 2 {
		t.Fatalf("after callback job: Jobs = %d, Simulated = %d, want %d and 2",
			c.Jobs, c.Simulated, n+1)
	}
}

// resettablePolicy is a described custom policy that opts into engine
// reuse. Interface embedding does not promote the concrete Reset, so the
// wrapper forwards it explicitly.
type resettablePolicy struct{ ooo.SpeculationPolicy }

func (p resettablePolicy) Reset() { p.SpeculationPolicy.(ooo.PolicyResetter).Reset() }

// opaquePolicy is a described custom policy without Reset: memoizable, but
// every execution must build a fresh engine.
type opaquePolicy struct{ ooo.SpeculationPolicy }

// customJob builds a Job whose config installs a wrapped DefaultPolicy under
// the given PolicyKey.
func customJob(t *testing.T, p trace.Profile, key string, resettable bool) Job {
	t.Helper()
	build := func() ooo.Config {
		cfg := ooo.DefaultConfig()
		base := cfg
		cfg.PolicyKey = key
		cfg.NewPolicy = func(d ooo.PolicyDeps) ooo.SpeculationPolicy {
			inner := ooo.DefaultPolicy(base, d)
			if resettable {
				return resettablePolicy{inner}
			}
			return opaquePolicy{inner}
		}
		return cfg
	}
	return Job{Machine: NewMachine(build, 1_000), Profile: p, Uops: 5_000}
}

// TestPoolCustomPolicyMemoized: the ISSUE 6 regression — submitting the same
// described custom-policy config twice runs one simulation and lands the
// second in MemoHits, and its result matches the equivalent built-in config.
func TestPoolCustomPolicyMemoized(t *testing.T) {
	p := NewIsolated(1, NewCache())
	job := customJob(t, testProfile(t), "wrap/default", true)
	first := p.Do(job)
	second := p.Do(job)
	if first != second {
		t.Fatal("memoized custom-policy result diverged")
	}
	c := p.Counters()
	if c.Simulated != 1 {
		t.Fatalf("Simulated = %d, want 1", c.Simulated)
	}
	if c.MemoHits != 1 {
		t.Fatalf("MemoHits = %d, want 1", c.MemoHits)
	}
	if c.Uncached != 0 {
		t.Fatalf("Uncached = %d, want 0", c.Uncached)
	}
	// The wrapper adds no behavior, so the built-in policy must agree —
	// proving the custom path simulates the same machine it describes.
	if builtin := p.Do(testJob(t, memdep.Traditional)); builtin != first {
		t.Fatalf("wrapped DefaultPolicy stats %+v != built-in %+v", first, builtin)
	}
}

// TestPoolCustomPolicyEngineReuse: distinct traces on one described
// resettable custom policy share pooled engines (reuse count > 0), while a
// non-resettable policy is surfaced via EngineBuilds instead of silently
// degrading.
func TestPoolCustomPolicyEngineReuse(t *testing.T) {
	var a, b trace.Profile
	for _, g := range trace.Groups() {
		if len(g.Traces) >= 2 {
			a, b = g.Traces[0], g.Traces[1]
			break
		}
	}
	if a.Name == "" || b.Name == "" {
		t.Fatal("no trace group with two members")
	}

	p := NewIsolated(1, NewCache())
	p.Do(customJob(t, a, "wrap/default", true))
	p.Do(customJob(t, b, "wrap/default", true))
	c := p.Counters()
	if c.EngineBuilds != 1 || c.EngineReuses != 1 {
		t.Fatalf("resettable policy: EngineBuilds = %d, EngineReuses = %d, want 1 and 1",
			c.EngineBuilds, c.EngineReuses)
	}

	p = NewIsolated(1, NewCache())
	p.Do(customJob(t, a, "wrap/opaque", false))
	p.Do(customJob(t, b, "wrap/opaque", false))
	c = p.Counters()
	if c.EngineBuilds != 2 || c.EngineReuses != 0 {
		t.Fatalf("opaque policy: EngineBuilds = %d, EngineReuses = %d, want 2 and 0",
			c.EngineBuilds, c.EngineReuses)
	}
}

// TestPoolCountersNilCache: a cacheless pool counts every job as uncached.
func TestPoolCountersNilCache(t *testing.T) {
	p := NewIsolated(2, nil)
	p.Do(testJob(t, memdep.Traditional))
	c := p.Counters()
	if c.Jobs != 1 || c.Simulated != 1 || c.Uncached != 1 || c.MemoHits != 0 {
		t.Fatalf("counters = %+v", c)
	}
	if p.CacheLen() != 0 {
		t.Fatalf("CacheLen = %d on cacheless pool", p.CacheLen())
	}
}

// TestSharedMachineConcurrentJobs runs one Machine handle's jobs from many
// goroutines at once, as Map workers do, on a memoizing pool and on a
// cacheless one, and requires every result to equal a solo run. Under
// -race it shows the handle is only read after NewMachine.
func TestSharedMachineConcurrentJobs(t *testing.T) {
	m := NewMachine(schemeBuild(memdep.Inclusive), 500)
	g, _ := trace.GroupByName(trace.GroupSysmarkNT)
	profs := g.Traces[:4]
	want := make([]ooo.Stats, len(profs))
	for i, p := range profs {
		want[i] = NewIsolated(1, nil).Do(Job{Machine: m, Profile: p, Uops: 2_000})
	}
	for _, cache := range []*Cache{NewCache(), nil} {
		pool := NewIsolated(4, cache)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range profs {
					i := (w + k) % len(profs)
					if got := pool.Do(Job{Machine: m, Profile: profs[i], Uops: 2_000}); got != want[i] {
						t.Errorf("cache %v: %s diverged from its solo run", cache != nil, profs[i].Name)
					}
				}
			}()
		}
		jobs := make([]Job, 3*len(profs))
		for i := range jobs {
			jobs[i] = Job{Machine: m, Profile: profs[i%len(profs)], Uops: 2_000}
		}
		for i, got := range pool.Run(jobs) {
			if got != want[i%len(profs)] {
				t.Errorf("cache %v: Run job %d diverged from its solo run", cache != nil, i)
			}
		}
		wg.Wait()
	}
}
