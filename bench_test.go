// Benchmark harness: one BenchmarkFigN per table/figure of the paper's
// evaluation — each run regenerates the figure's data on a reduced workload
// and reports the headline quantity as a custom metric — plus throughput
// microbenchmarks for the simulator's substrates.
//
//	go test -bench=Fig -benchmem            # the paper's figures
//	go test -bench=. -benchmem              # everything
package loadsched

import (
	"encoding/binary"
	"os"
	"testing"

	"loadsched/internal/bankpred"
	"loadsched/internal/cache"
	"loadsched/internal/experiments"
	"loadsched/internal/hitmiss"
	"loadsched/internal/memdep"
	"loadsched/internal/ooo"
	"loadsched/internal/runner"
	"loadsched/internal/store"
	"loadsched/internal/trace"
	"loadsched/internal/uop"
)

// benchOptions keeps the per-iteration cost of figure benchmarks bounded.
// The pool is isolated and cache-free so every iteration measures full
// simulation cost: on the shared process-wide cache, iterations after the
// first would be memo hits.
func benchOptions() experiments.Options {
	return experiments.Options{Uops: 30_000, Warmup: 8_000, TracesPerGroup: 2,
		Pool: runner.NewIsolated(0, nil)}
}

func BenchmarkFig5Classification(b *testing.B) {
	o := benchOptions()
	var ac float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig5(o)
		var total memdep.Classification
		for _, r := range rows {
			total.Add(r.Class)
		}
		ac = total.FracOfLoads(total.AC())
	}
	b.ReportMetric(100*ac, "AC%")
}

func BenchmarkFig6WindowSweep(b *testing.B) {
	o := benchOptions()
	var growth float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig6(o)
		first, last := rows[0].Class, rows[len(rows)-1].Class
		growth = last.FracOfLoads(last.AC()) - first.FracOfLoads(first.AC())
	}
	b.ReportMetric(100*growth, "AC-growth-pp")
}

func BenchmarkFig7OrderingSchemes(b *testing.B) {
	o := benchOptions()
	var perfect float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig7(o)
		perfect = r.Average(memdep.Perfect)
	}
	b.ReportMetric(perfect, "perfect-speedup")
}

func BenchmarkFig8MachineConfigs(b *testing.B) {
	o := experiments.Options{Uops: 20_000, Warmup: 6_000, TracesPerGroup: 1,
		Pool: runner.NewIsolated(0, nil)}
	var wide float64
	for i := 0; i < b.N; i++ {
		cells := experiments.Fig8(o)
		for _, c := range cells {
			if c.Group == trace.GroupSysmarkNT &&
				c.Machine == experiments.Fig8Machines[2] && c.Scheme == memdep.Exclusive {
				wide = c.Speedup
			}
		}
	}
	b.ReportMetric(wide, "EU4MEM2-exclusive-speedup")
}

func BenchmarkFig9CHTSweep(b *testing.B) {
	o := benchOptions()
	var acpnc float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig9(o)
		for _, r := range rows {
			if r.Kind == "combined" && r.Entries == 2048 {
				acpnc = r.Class.FracOfLoads(r.Class.ACPNC)
			}
		}
	}
	b.ReportMetric(100*acpnc, "combined2K-ACPNC%")
}

func BenchmarkFig10HitMissStats(b *testing.B) {
	o := benchOptions()
	var caught float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig10(o)
		for _, r := range rows {
			if r.Group == trace.GroupSpecFP95 && r.Local.Misses() > 0 {
				caught = float64(r.Local.AMPM) / float64(r.Local.Misses())
			}
		}
	}
	b.ReportMetric(100*caught, "FP-caught%")
}

func BenchmarkFig11HitMissSpeedup(b *testing.B) {
	o := experiments.Options{Uops: 25_000, Warmup: 8_000, TracesPerGroup: 2,
		Pool: runner.NewIsolated(0, nil)}
	var perfect float64
	for i := 0; i < b.N; i++ {
		cells := experiments.Fig11(o)
		for _, c := range cells {
			if c.Group == trace.GroupSpecInt95 && c.Predictor == "perfect" {
				perfect = c.Speedup
			}
		}
	}
	b.ReportMetric(perfect, "perfectHMP-speedup")
}

func BenchmarkFig12BankMetric(b *testing.B) {
	o := benchOptions()
	var m float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig12(o)
		for _, r := range rows {
			if r.Group == trace.GroupSpecInt95 && r.Predictor == "Addr" {
				m = r.Metric(5)
			}
		}
	}
	b.ReportMetric(m, "addr-metric-p5")
}

// BenchmarkTournament measures the policy-zoo race end-to-end: every
// participant (built-in + internal/policies zoo) over every trace group.
// The cache-free isolated pool makes each iteration pay full simulation
// cost, so zoo-policy slowdowns (a heavier PredictLevel, a slower training
// rule) gate through bench-compare like engine regressions do.
func BenchmarkTournament(b *testing.B) {
	o := benchOptions()
	var winner float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Tournament(o)
		for _, r := range rows {
			if r.Group == trace.GroupSysmarkNT && r.Rank == 1 {
				winner = r.Speedup
			}
		}
	}
	b.ReportMetric(winner, "NT-winner-speedup")
}

// --- ablation benches for the design choices DESIGN.md calls out ---

// BenchmarkAblationCHTKinds compares the four CHT organizations end-to-end
// under the Inclusive scheme.
func BenchmarkAblationCHTKinds(b *testing.B) {
	p, _ := trace.TraceByName(trace.GroupSysmarkNT, "pp")
	for _, tc := range []struct {
		name string
		make func() memdep.Predictor
	}{
		{"full2K", func() memdep.Predictor { return memdep.NewFullCHT(2048, 4, 2, true) }},
		{"tagless4K", func() memdep.Predictor { return memdep.NewTaglessCHT(4096, 1, false) }},
		{"tagged2K", func() memdep.Predictor { return memdep.NewImplicitCHT(2048, 4, false) }},
		{"combined2K", func() memdep.Predictor { return memdep.NewCombinedCHT(2048, 4, 4096, false) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var ipc float64
			for i := 0; i < b.N; i++ {
				cfg := ooo.DefaultConfig()
				cfg.Scheme = memdep.Inclusive
				cfg.CHT = tc.make()
				cfg.WarmupUops = 8_000
				ipc = ooo.NewEngine(cfg, trace.Replay(p)).Run(30_000).IPC()
			}
			b.ReportMetric(ipc, "IPC")
		})
	}
}

// BenchmarkAblationBankPolicies compares the memory-pipeline organizations
// of Figure 4 end-to-end (the paper evaluates bank prediction statistically;
// this is the integration DESIGN.md adds).
func BenchmarkAblationBankPolicies(b *testing.B) {
	p, _ := trace.TraceByName(trace.GroupSpecInt95, "vortex")
	for _, tc := range []struct {
		name   string
		policy ooo.BankPolicy
		pred   func() bankpred.Predictor
	}{
		{"ideal", ooo.BankOff, nil},
		{"conventional", ooo.BankConventional, nil},
		{"predictive", ooo.BankPredictive, func() bankpred.Predictor { return bankpred.NewPredictorC() }},
		{"sliced", ooo.BankSliced, func() bankpred.Predictor { return bankpred.NewAddrBank(cache.DefaultBanking()) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var ipc float64
			for i := 0; i < b.N; i++ {
				cfg := ooo.DefaultConfig()
				cfg.Scheme = memdep.Perfect
				cfg.BankPolicy = tc.policy
				cfg.Banking = cache.DefaultBanking()
				cfg.BankMispredictPenalty = 8
				if tc.pred != nil {
					cfg.BankPredictor = tc.pred()
				}
				cfg.WarmupUops = 8_000
				ipc = ooo.NewEngine(cfg, trace.Replay(p)).Run(30_000).IPC()
			}
			b.ReportMetric(ipc, "IPC")
		})
	}
}

// --- substrate microbenchmarks ---

func BenchmarkEngineThroughput(b *testing.B) {
	p, _ := trace.TraceByName(trace.GroupSysmarkNT, "ex")
	cfg := ooo.DefaultConfig()
	cfg.Scheme = memdep.Exclusive
	cfg.CHT = memdep.NewFullCHT(2048, 4, 2, true)
	e := ooo.NewEngine(cfg, trace.Replay(p))
	b.ResetTimer()
	e.Run(b.N) // retire exactly b.N uops
	b.ReportMetric(float64(b.N), "uops")
}

func BenchmarkTraceGeneration(b *testing.B) {
	p, _ := trace.TraceByName(trace.GroupSpecInt95, "gcc")
	g := trace.New(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

// BenchmarkEngineCycle measures the event-driven scheduling core on the
// baseline machine. Every op replays one fixed window: untimed, it builds
// an engine on a fresh cursor and retires the first engineCyclePrime
// uops (filling the pipeline, caches and predictors, like the quick
// preset's warmup); timed, it retires the next engineCycleWindow. The
// recording covers the whole window before the timer starts, so no op pays
// trace recording, and the simulated work — and the reported cycles/uop —
// is the same at any -benchtime. The simulated cycles-per-uop keeps
// throughput changes attributable (same CPI + fewer ns = faster scheduler,
// not a different machine).
func BenchmarkEngineCycle(b *testing.B) {
	const engineCyclePrime, engineCycleWindow = 15_000, 10_000
	p, _ := trace.TraceByName(trace.GroupSysmarkNT, "ex")
	c := trace.Replay(p)
	for seen := 0; seen < engineCyclePrime+engineCycleWindow+trace.ChunkUops; {
		us, _, _ := c.NextBatchRef() // record the window and the fetch run-ahead past it
		seen += len(us)
	}
	var cycles int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := ooo.NewEngine(ooo.DefaultConfig(), trace.Replay(p))
		e.Run(engineCyclePrime)
		start := e.Now()
		b.StartTimer()
		e.Run(engineCycleWindow)
		cycles += e.Now() - start
	}
	b.StopTimer()
	b.ReportMetric(float64(cycles)/float64(b.N*engineCycleWindow), "cycles/uop")
	b.ReportMetric(engineCycleWindow, "uops/op")
}

// BenchmarkTraceReplay measures the shared-recording cursor next to
// BenchmarkTraceGeneration: the steady-state cost once the profile is
// materialized, which is what every simulation job after the first pays.
// Each iteration replays one fixed-size chunk from the start.
func BenchmarkTraceReplay(b *testing.B) {
	const chunk = 4_096
	p, _ := trace.TraceByName(trace.GroupSpecInt95, "gcc")
	c := trace.Replay(p)
	for i := 0; i < chunk; i++ {
		c.Next() // warm the shared recording past the growth steps
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := trace.Replay(p)
		for j := 0; j < chunk; j++ {
			c.Next()
		}
	}
	b.ReportMetric(chunk, "uops/op")
}

func BenchmarkCacheAccess(b *testing.B) {
	h := cache.NewHierarchy(cache.DefaultHierarchyConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(uint64(i*64) % (1 << 20))
	}
}

func BenchmarkCHTLookup(b *testing.B) {
	cht := memdep.NewFullCHT(2048, 4, 2, true)
	for i := 0; i < 4096; i++ {
		cht.Record(uint64(i*4), i%7 == 0, 2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cht.Lookup(uint64(i%4096) * 4)
	}
}

func BenchmarkHMPLocalPredict(b *testing.B) {
	p := hitmiss.NewLocal()
	for i := 0; i < 4096; i++ {
		p.Update(uint64(i*4), 0, 0, i%16 != 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.PredictHit(uint64(i%4096)*4, 0, 0)
	}
}

func BenchmarkBankPredictorC(b *testing.B) {
	p := bankpred.NewPredictorC()
	for i := 0; i < 4096; i++ {
		p.Update(uint64(i*4), i%2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Predict(uint64(i%4096) * 4)
	}
}

// BenchmarkFacadeRun measures the facade in repeated use: the first
// iteration simulates, the rest hit the process-wide memoization cache, so
// the steady-state ns/op is the cache-lookup path the facade now ships with.
func BenchmarkFacadeRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := Run(Workload{Uops: 20_000, Warmup: 5_000},
			Machine{Scheme: Inclusive, HMP: HMPLocal})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunnerMultiFigure measures the tentpole win end-to-end: Figures
// 5–8 back to back, the workload of `loadsched all`. "serial" is the
// pre-runner behavior (one worker, no memoization — every job simulates).
// "parallel" uses all cores and a fresh per-iteration cache, so the
// Traditional baseline shared by the four figures is simulated once; on a
// single core the cache alone wins, on ≥4 cores the pool multiplies it.
func BenchmarkRunnerMultiFigure(b *testing.B) {
	figures := func(o experiments.Options) {
		experiments.Fig5(o)
		experiments.Fig6(o)
		experiments.Fig7(o)
		experiments.Fig8(o)
	}
	base := experiments.Options{Uops: 20_000, Warmup: 5_000, TracesPerGroup: 2}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			o := base
			o.Pool = runner.NewIsolated(1, nil)
			figures(o)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			o := base
			o.Pool = runner.NewIsolated(0, runner.NewCache())
			figures(o)
		}
	})
}

// BenchmarkWarmStoreHit measures what a restarted `loadsched serve -store`
// pays for each runner job it answers without simulating: one Pool.Do on a
// fresh memo cache over a warm store — the profile's key text, the job key,
// the memo entry, the store read and the payload decode. The machine
// handle is built once, as a driver builds one per point for all of the
// point's traces, so no config is built and no ConfigKey runs per job. One
// op answers a fixed batch of such jobs (~0.2 ms), so even
// `-benchtime=10x` times the steady state; ns/job is the per-job cost.
func BenchmarkWarmStoreHit(b *testing.B) {
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	p, _ := trace.TraceByName(trace.GroupSpecInt95, "gcc")
	m := runner.NewMachine(func() ooo.Config {
		cfg := ooo.DefaultConfig()
		cfg.Scheme = memdep.Exclusive
		cfg.CHT = memdep.NewFullCHT(2048, 4, 2, true)
		return cfg
	}, 3_000)
	job := runner.Job{Machine: m, Profile: &p, Uops: 15_000}
	cold := runner.NewCache()
	cold.SetStore(st)
	runner.NewIsolated(1, cold).Do(job) // simulate once and write through
	const jobsPerOp = 64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < jobsPerOp; j++ {
			c := runner.NewCache()
			c.SetStore(st)
			pool := runner.NewIsolated(1, c)
			pool.Do(job)
			if pool.Counters().DiskHits != 1 {
				b.Fatal("warm-store job was not a disk hit")
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*jobsPerOp), "ns/job")
}

// BenchmarkStoreGetPut times the result store's three operations on a
// store of 1000 entries shaped like the runner's (a 537-byte store key, a
// 264-byte stats payload) that were loaded from disk at Open: a warm hit,
// a miss, and a Put, which appends one frame to the store's segment. A hit
// or miss op reads each of the 1000 keys once (0.1–0.5 ms), so even
// `-benchtime=10x` times the steady state; ns/get is the per-read cost.
func BenchmarkStoreGetPut(b *testing.B) {
	const entries = 1000
	cfg := ooo.DefaultConfig()
	cfg.Scheme = memdep.Exclusive
	cfg.CHT = memdep.NewFullCHT(2048, 4, 2, true)
	desc, ok := runner.ConfigKey(cfg)
	if !ok {
		b.Fatal("machine has no key")
	}
	p, _ := trace.TraceByName(trace.GroupSpecInt95, "compress")
	keys := make([]string, 2*entries) // the second half is never written
	for i := range keys {
		keys[i] = runner.StoreKey(runner.Key{Machine: desc, Profile: p, Uops: 15_000 + i, Warmup: 3_000})
	}
	payload := make([]byte, binary.Size(ooo.Stats{}))
	open := func(dir string) *store.Store {
		st, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		return st
	}
	dir := b.TempDir()
	st := open(dir)
	for _, k := range keys[:entries] {
		if err := st.Put(k, payload); err != nil {
			b.Fatal(err)
		}
	}
	st = open(dir)
	gets := func(b *testing.B, keys []string, want bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, k := range keys {
				if _, ok := st.Get(k); ok != want {
					b.Fatalf("Get(%q) hit=%v, want %v", k, ok, want)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/get")
	}
	b.Run("hit", func(b *testing.B) { gets(b, keys[:entries], true) })
	b.Run("miss", func(b *testing.B) { gets(b, keys[entries:], false) })
	b.Run("put", func(b *testing.B) {
		putDir := b.TempDir()
		var st *store.Store
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%entries == 0 {
				// Start over on an empty store every 1000 Puts, so disk
				// use stays bounded however large b.N grows.
				b.StopTimer()
				if err := os.RemoveAll(putDir); err != nil {
					b.Fatal(err)
				}
				st = open(putDir)
				b.StartTimer()
			}
			if err := st.Put(keys[i%entries], payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// guard against dead-code elimination of uop helpers in benches above.
var _ = uop.Load
