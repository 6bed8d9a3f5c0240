package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"loadsched/internal/memdep"
	"loadsched/internal/ooo"
	"loadsched/internal/runner"
	"loadsched/internal/store"
	"loadsched/internal/trace"
)

// Direct layer calls. Where a workload reaches a layer only from inside
// another package, the traced run times that layer's public functions here,
// on the workload's own profiles, machine configs and result payloads.

// schemeConfig is the paper's §3.1 machine under one ordering scheme, with
// the reference 2K-entry 4-way Full CHT for the CHT schemes.
func schemeConfig(s memdep.Scheme, warmup int) ooo.Config {
	cfg := ooo.DefaultConfig()
	cfg.Scheme = s
	if s.UsesCHT() {
		cfg.CHT = memdep.NewFullCHT(2048, 4, 2, true)
	}
	cfg.WarmupUops = warmup
	return cfg
}

// oooRuns accumulates host cost and simulated work over Engine.Run calls.
type oooRuns struct {
	nanos, uops, cycles  int64 // host time; uops and cycles incl. warmup
	measCycles, measUops int64
	mallocs              uint64
	stats                []ooo.Stats
}

// run simulates uops measured uops after cfg's warmup on a fresh engine
// over src, timing only Engine.Run.
func (o *oooRuns) run(tr *tracer, cfg ooo.Config, src ooo.Source, uops int) {
	e := ooo.NewEngine(cfg, src)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, end := tr.begin("ooo.Engine.Run", 0, 0)
	start := time.Now()
	st := e.Run(uops)
	d := time.Since(start)
	end()
	runtime.ReadMemStats(&after)
	o.nanos += d.Nanoseconds()
	o.uops += int64(cfg.WarmupUops + uops)
	o.cycles += e.Now()
	o.measCycles += st.Cycles
	o.measUops += int64(st.Uops)
	o.mallocs += after.Mallocs - before.Mallocs
	o.stats = append(o.stats, st)
}

func (o *oooRuns) add(r *report) {
	r.add("ooo.ns_per_uop", "ns/uop", float64(o.nanos)/float64(o.uops))
	r.add("ooo.ns_per_cycle", "ns/cycle", float64(o.nanos)/float64(o.cycles))
	r.add("ooo.allocs_per_kuop", "allocs/kuop", float64(o.mallocs)/(float64(o.uops)/1000))
	r.add("ooo.cycles_per_uop", "cycles/uop", float64(o.measCycles)/float64(o.measUops))
}

// payloads encodes the runs' statistics as the runner persists them.
func (o *oooRuns) payloads() ([][]byte, error) {
	var out [][]byte
	for _, st := range o.stats {
		b, err := json.Marshal(st)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// oooProbe runs every scheme's baseline machine over one of the workload's
// profiles at the workload's job length.
func oooProbe(tr *tracer, prof trace.Profile, uops, warmup int) *oooRuns {
	var o oooRuns
	for _, s := range memdep.Schemes() {
		o.run(tr, schemeConfig(s, warmup), trace.Replay(prof), uops)
	}
	return &o
}

// traceFileProbe writes n uops of prof as a v2 trace file, opens it five
// times (open_scan_ms is their median) and walks it once through
// StreamReader.NextBatchRef with no engine attached: the cost `loadsched
// replay` pays per uop before simulating.
func traceFileProbe(p params, r *report, prof trace.Profile, n int) error {
	path := filepath.Join(p.dir, "probe.lsut")
	defer os.Remove(path)
	_, end := p.tr.begin("trace.WriteTraceFile", 0, 0)
	start := time.Now()
	err := trace.WriteTraceFile(path, prof, n)
	write := time.Since(start)
	end()
	if err != nil {
		return fmt.Errorf("trace probe: %w", err)
	}
	var opens []float64
	var rd *trace.StreamReader
	for i := 0; i < 5; i++ {
		if rd != nil {
			rd.Close()
		}
		_, end := p.tr.begin("trace.StreamTraceFile", 0, 0)
		start := time.Now()
		rd, err = trace.StreamTraceFile(path)
		opens = append(opens, float64(time.Since(start).Nanoseconds())/1e6)
		end()
		if err != nil {
			return fmt.Errorf("trace probe: %w", err)
		}
	}
	defer rd.Close()
	_, end = p.tr.begin("trace.StreamReader.NextBatchRef", 0, 0)
	start = time.Now()
	for seen := int64(0); seen < rd.Uops(); {
		us, _, _ := rd.NextBatchRef()
		seen += int64(len(us))
	}
	walk := time.Since(start)
	end()
	r.add("trace.write_ns_per_uop", "ns/uop", float64(write.Nanoseconds())/float64(n))
	r.add("trace.stream_ns_per_uop", "ns/uop", float64(walk.Nanoseconds())/float64(n))
	r.add("trace.sidecar_ns_per_uop", "ns/uop", float64(rd.SidecarBuildNanos())/float64(n))
	r.add("trace.open_scan_ms", "ms", median(opens))
	return nil
}

// probeConfigs are machine configs of the kinds the workloads' jobs use:
// every ordering scheme at three window sizes.
func probeConfigs(warmup int) []ooo.Config {
	var out []ooo.Config
	for _, w := range []int{16, 32, 64} {
		for _, s := range memdep.Schemes() {
			cfg := schemeConfig(s, warmup)
			cfg.Window = w
			out = append(out, cfg)
		}
	}
	return out
}

// keyProbe times runner.ConfigKey plus runner.StoreKey per job over the
// configs and returns microseconds per key and the store keys.
func keyProbe(cfgs []ooo.Config, prof trace.Profile, uops, warmup int) (float64, []string, error) {
	keys := make([]string, len(cfgs))
	n := 0
	start := time.Now()
	for time.Since(start) < 50*time.Millisecond || n == 0 {
		for i, cfg := range cfgs {
			desc, ok := runner.ConfigKey(cfg)
			if !ok {
				return 0, nil, fmt.Errorf("probe config %d is not describable", i)
			}
			keys[i] = runner.StoreKey(runner.Key{Machine: desc, Profile: prof, Uops: uops, Warmup: warmup})
			n++
		}
	}
	return float64(time.Since(start).Microseconds()) / float64(n), keys, nil
}

// storeProbe times store.Put and store.Get of the payloads under the keys
// in a scratch store, reading every entry back several times so the Get
// tail percentile has samples beyond it.
func storeProbe(p params, r *report, keys []string, payloads [][]byte) error {
	dir, err := os.MkdirTemp(p.dir, "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	s, err := store.Open(dir)
	if err != nil {
		return err
	}
	var puts, gets []float64
	for i, k := range keys {
		start := time.Now()
		if err := s.Put(k, payloads[i%len(payloads)]); err != nil {
			return fmt.Errorf("store probe put: %w", err)
		}
		puts = append(puts, float64(time.Since(start).Nanoseconds())/1e3)
	}
	for len(gets) < 1100 {
		for _, k := range keys {
			start := time.Now()
			_, ok := s.Get(k)
			gets = append(gets, float64(time.Since(start).Nanoseconds())/1e3)
			if !ok {
				return fmt.Errorf("store probe: entry %q missing", k)
			}
		}
	}
	r.addPct("store.get_us_p50", "us", percentile(gets, 50))
	r.addPct("store.get_us_p99", "us", percentile(gets, 99))
	r.addPct("store.put_us_p50", "us", percentile(puts, 50))
	return nil
}
