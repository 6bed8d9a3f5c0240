package main

import (
	"fmt"
	"io"
	"os"
	"time"
	"unsafe"

	"loadsched/internal/experiments"
	"loadsched/internal/results"
	"loadsched/internal/runner"
	"loadsched/internal/store"
	"loadsched/internal/trace"
	"loadsched/internal/uop"
)

// figSize scales the figures workload. Per-trace lengths (Uops+Warmup)
// stay above the batcher's 64K-uop lockstep window so lockstep stepping is
// on the path, as in full-size sweeps.
type figSize struct{ Uops, Warmup, TracesPerGroup int }

var benchFigures = figSize{Uops: 100_000, Warmup: 20_000, TracesPerGroup: 2}

// warmupShift is how many uops each seed variant adds to the warmup
// window. Changing it changes every expected output.
const warmupShift = 256

// sweepNominal is a sweep's wall time on a 2-vCPU host.
const sweepNominal = 4500 * time.Millisecond

// traceProbeUops is the length of the trace file the traced run writes and
// streams to time the file-replay path of the trace layer.
const traceProbeUops = 1 << 20

// figures is what `loadsched all -format json -store DIR -j 2` runs: every
// FigureRecord on one pool whose fresh memo cache has an empty store
// attached, then results.WriteJSON on the report.
type figures struct {
	size figSize
	// recordNanos/recordUops time the set-up's first cursor walks.
	recordNanos, recordUops int64
	profiles                []trace.Profile
	// want is the expected record digests by figure ID; nil loads them
	// from expected.json.
	want map[string]string
}

func newFigures(s figSize) *figures { return &figures{size: s} }

func (f *figures) options(p params) experiments.Options {
	return experiments.Options{
		Uops:           f.size.Uops,
		Warmup:         f.size.Warmup + p.variant()*warmupShift,
		TracesPerGroup: f.size.TracesPerGroup,
	}
}

// sweepProfiles lists every profile the figure drivers read: the first
// TracesPerGroup traces of each group.
func sweepProfiles(tracesPerGroup int) []trace.Profile {
	var out []trace.Profile
	for _, g := range trace.Groups() {
		ps := g.Traces
		if tracesPerGroup > 0 && tracesPerGroup < len(ps) {
			ps = ps[:tracesPerGroup]
		}
		out = append(out, ps...)
	}
	return out
}

// setup records and decodes every profile the sweep reads, over the
// sweep's full per-trace length, so the timed sweeps replay warm
// recordings.
func (f *figures) setup(p params) error {
	o := f.options(p)
	n := o.Uops + o.EffectiveWarmup()
	f.profiles = sweepProfiles(o.TracesPerGroup)
	for _, prof := range f.profiles {
		start := time.Now()
		c := trace.Replay(prof)
		for seen := 0; seen < n; {
			us, _, _ := c.NextBatchRef()
			seen += len(us)
		}
		f.recordNanos += time.Since(start).Nanoseconds()
		f.recordUops += int64(n)
	}
	return nil
}

// sweepResult is one sweep's outcome.
type sweepResult struct {
	wall     time.Duration
	figs     []time.Duration // per FigureRecord, in FigureIDs order
	encode   time.Duration
	counters runner.Counters
	disk     store.Counters
	uops     int64 // simulated uops (warmup + measured)
}

// sweep runs the figures once on a fresh pool, cache and empty store, and
// checks every record against the expected bytes.
func (f *figures) sweep(p params, tr *tracer, job int, want map[string]string, r *report) (sweepResult, error) {
	o := f.options(p)
	dir, err := os.MkdirTemp(p.dir, "store-")
	if err != nil {
		return sweepResult{}, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return sweepResult{}, err
	}
	cache := runner.NewCache()
	cache.SetStore(st)
	o.Pool = runner.NewIsolated(p.workers, cache)

	var res sweepResult
	start := time.Now()
	root, endSweep := tr.begin("figures.sweep", 0, job)
	recs := make([]results.Record, 0, len(experiments.FigureIDs))
	for _, id := range experiments.FigureIDs {
		t0 := time.Now()
		_, end := tr.begin("experiments."+id, root, job)
		rec, err := figureRecord(id, o)
		end()
		res.figs = append(res.figs, time.Since(t0))
		if err != nil {
			r.check(false, "%s: %v", id, err)
			continue
		}
		recs = append(recs, rec)
	}
	report := results.NewReport("all", results.Options{
		Uops: o.Uops, Warmup: o.Warmup, TracesPerGroup: o.TracesPerGroup}, recs)
	t0 := time.Now()
	_, end := tr.begin("results.WriteJSON", root, job)
	err = results.WriteJSON(io.Discard, report)
	end()
	res.encode = time.Since(t0)
	endSweep()
	res.wall = time.Since(start)
	if err != nil {
		return res, fmt.Errorf("encoding report: %w", err)
	}
	checkRecords(r, recs, want)
	res.counters = o.Pool.Counters()
	res.disk, _ = o.Pool.DiskCounters()
	// Only the runner's jobs: Fig9's collision-gathering engine passes run
	// as runner.Map tasks and are left out, though their time is not.
	res.uops = res.counters.Simulated * int64(o.Uops+o.EffectiveWarmup())
	return res, nil
}

// figureRecord calls experiments.FigureRecord, turning a panic into an
// error so one broken figure is counted, not fatal.
func figureRecord(id string, o experiments.Options) (rec results.Record, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	return experiments.FigureRecord(id, o)
}

// checkRecords counts one attempt per expected figure: each record must be
// byte-identical to the expected bytes (compared by SHA-256).
func checkRecords(r *report, recs []results.Record, want map[string]string) {
	got := map[string]string{}
	for _, rec := range recs {
		d, err := recordDigest(rec)
		if err != nil {
			d = "unencodable: " + err.Error()
		}
		got[rec.ID] = d
	}
	for _, id := range experiments.FigureIDs {
		if _, ok := got[id]; !ok {
			continue // already counted as failed when it errored
		}
		r.check(got[id] == want[id], "%s record differs from the expected bytes", id)
	}
}

func (f *figures) measure(p params, r *report) error {
	want := f.want
	if want == nil {
		var err error
		if want, err = loadExpected("figures", f.size, p.variant()); err != nil {
			return err
		}
	}
	var sweeps []sweepResult
	var untraced []float64
	err := runUnits(p, sweepNominal, func(i int, tr *tracer) error {
		s, err := f.sweep(p, tr, i+1, want, r)
		if err != nil {
			return err
		}
		if p.tr != nil && tr == nil {
			untraced = append(untraced, s.wall.Seconds())
		} else {
			sweeps = append(sweeps, s)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if p.tr == nil {
		// A job is one `loadsched all` sweep.
		var walls []float64
		var lat []time.Duration
		var uops float64
		for _, s := range sweeps {
			walls = append(walls, s.wall.Seconds())
			lat = append(lat, s.wall)
			uops += float64(s.uops)
		}
		total := sum(walls)
		r.add("wall_s", "s", median(walls))
		r.add("sim_uops_per_s", "uops/s", uops/total)
		r.add("jobs_per_s", "jobs/s", float64(len(sweeps))/total)
		r.latency(lat)
		return nil
	}
	return f.layers(p, r, sweeps, untraced)
}

// layers reports the traced run's per-layer metrics.
func (f *figures) layers(p params, r *report, sweeps []sweepResult, untraced []float64) error {
	o := f.options(p)
	var walls, sims, encodes []float64
	for _, s := range sweeps {
		walls = append(walls, s.wall.Seconds())
		sims = append(sims, s.counters.SimTime.Seconds())
		encodes = append(encodes, float64(s.encode)/1e6)
	}
	probe := oooProbe(p.tr, f.profiles[0], o.Uops, o.EffectiveWarmup())
	probe.add(r)
	payloads, err := probe.payloads()
	if err != nil {
		return err
	}
	r.add("trace.record_ns_per_uop", "ns/uop", float64(f.recordNanos)/float64(f.recordUops))
	if err := traceFileProbe(p, r, f.profiles[0], traceProbeUops); err != nil {
		return err
	}
	r.add("trace.resident_mb", "MB", residentMB(f.profiles))

	last := sweeps[len(sweeps)-1]
	simS := median(sims)
	r.add("runner.sim_s", "s", simS)
	r.add("runner.busy_frac", "ratio", simS/(float64(p.workers)*median(walls)))
	runnerCounts(r, last.counters.Jobs, last.counters.Simulated, last.counters.MemoHits,
		last.counters.DiskHits, last.counters.Coalesced, last.counters.EngineBuilds,
		last.counters.EngineReuses, last.counters.MapTasks)
	keyUs, keys, err := keyProbe(probeConfigs(o.EffectiveWarmup()), f.profiles[0], o.Uops, o.EffectiveWarmup())
	if err != nil {
		return err
	}
	r.add("runner.key_us", "us", keyUs)
	if err := storeProbe(p, r, keys, payloads); err != nil {
		return err
	}
	storeCounts(r, last.disk)
	for i, id := range experiments.FigureIDs {
		var xs []float64
		for _, s := range sweeps {
			xs = append(xs, s.figs[i].Seconds())
		}
		r.add("experiments."+id+"_s", "s", median(xs))
	}
	r.add("results.encode_ms", "ms", median(encodes))
	r.add("bench.tracing_overhead_frac", "ratio", median(walls)/median(untraced)-1)
	return nil
}

// residentMB sums the packed, side-car and decoded-view bytes of the
// profiles' live recordings.
func residentMB(ps []trace.Profile) float64 {
	var b int64
	for _, prof := range ps {
		rec := trace.Materialize(prof)
		b += rec.PackedBytes() + rec.SidecarBytes() + int64(rec.Len())*int64(unsafe.Sizeof(uop.UOp{}))
	}
	return float64(b) / (1 << 20)
}

func runnerCounts(r *report, jobs, simulated, memo, disk, coalesced, builds, reuses, tasks int64) {
	for _, c := range []struct {
		name string
		v    int64
	}{{"jobs", jobs}, {"simulated", simulated}, {"memo_hits", memo}, {"disk_hits", disk},
		{"coalesced", coalesced}, {"engine_builds", builds}, {"engine_reuses", reuses}, {"map_tasks", tasks}} {
		r.add("runner."+c.name, "count", float64(c.v))
	}
}

func storeCounts(r *report, c store.Counters) {
	r.add("store.hits", "count", float64(c.Hits))
	r.add("store.misses", "count", float64(c.Misses))
	r.add("store.writes", "count", float64(c.Writes))
	r.add("store.corrupt", "count", float64(c.Corrupt))
	r.add("store.write_errors", "count", float64(c.WriteErrors))
}
