package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"loadsched/internal/experiments"
	"loadsched/internal/results"
	"loadsched/internal/runner"
	"loadsched/internal/serve"
)

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n       int
		want    float64
		p, v    float64
		comment string
	}{
		{1000, 99, 99, 990, "enough samples: p99 itself"},
		{100, 99, 90, 90, "p99 would leave 1 sample beyond it; p90 leaves 10"},
		{24, 99, 58, 14, "floor(100*14/24) = 58"},
		{15, 99, 50, 8, "no tail percentile above the median"},
		{100, 50, 50, 50.5, "the median interpolates"},
	} {
		got := percentile(seq(c.n), c.want)
		if got.p != c.p || got.value != c.v || got.n != c.n {
			t.Errorf("n=%d p%.0f: got %+v, want p%.0f=%v (%s)", c.n, c.want, got, c.p, c.v, c.comment)
		}
	}
	// Every reported tail percentile leaves at least 10 samples beyond it,
	// and the next whole percentile up would not.
	for n := 20; n <= 2000; n++ {
		got := percentile(seq(n), 99)
		rank := int(math.Ceil(got.p * float64(n) / 100))
		if n-rank < tailMinBeyond {
			t.Fatalf("n=%d: p%.0f leaves %d samples beyond", n, got.p, n-rank)
		}
		if got.p < 99 && n-int(math.Ceil((got.p+1)*float64(n)/100)) >= tailMinBeyond {
			t.Fatalf("n=%d: p%.0f is not the highest supported percentile", n, got.p)
		}
	}
}

// tableRecords builds one small record per figure ID.
func tableRecords() []results.Record {
	var recs []results.Record
	for _, id := range experiments.FigureIDs {
		recs = append(recs, results.NewTable(id, "title "+id, "", results.Options{Uops: 1},
			[]string{"a"}, [][]string{{"1"}}))
	}
	return recs
}

func TestFailureCountingFlippedRecordByte(t *testing.T) {
	recs := tableRecords()
	want := map[string]string{}
	for _, rec := range recs {
		d, err := recordDigest(rec)
		if err != nil {
			t.Fatal(err)
		}
		want[rec.ID] = d
	}
	var ok report
	checkRecords(&ok, recs, want)
	if ok.attempted != 8 || ok.failed != 0 {
		t.Fatalf("intact records: attempted=%d failed=%d, want 8/0", ok.attempted, ok.failed)
	}

	b, err := json.Marshal(recs[3])
	if err != nil {
		t.Fatal(err)
	}
	i := strings.Index(string(b), "title fig8")
	b[i+1] ^= 0x20 // "title" -> "tItle"
	flipped, err := results.DecodeRecord(b)
	if err != nil {
		t.Fatal(err)
	}
	recs[3] = flipped
	var r report
	checkRecords(&r, recs, want)
	if r.attempted != 8 || r.failed != 1 {
		t.Fatalf("one flipped byte: attempted=%d failed=%d, want 8/1", r.attempted, r.failed)
	}
}

func TestFailureCountingWarmJobThatSimulated(t *testing.T) {
	job := serve.Job{Command: "sweep", Sweep: "window"}
	var r report
	checkWarmJob(&r, job, jobResult{digest: "d"}, "d")
	checkWarmJob(&r, job, jobResult{digest: "d", counters: results.RunnerCounters{Simulated: 1}}, "d")
	checkWarmJob(&r, job, jobResult{digest: "e"}, "d")
	checkWarmJob(&r, job, jobResult{err: os.ErrClosed}, "d")
	if r.attempted != 4 || r.failed != 3 {
		t.Fatalf("attempted=%d failed=%d, want 4/3", r.attempted, r.failed)
	}
}

func TestSelfTimesOverlappingWorkers(t *testing.T) {
	// Two workers' children overlap on [40,60]; a third child runs past
	// the parent's end and is clipped; a grandchild counts only against
	// its own parent.
	spans := []span{
		{ID: 1, Name: "sweep", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "b", Start: 40, End: 90},
		{ID: 4, Parent: 1, Name: "c", Start: 95, End: 120},
		{ID: 5, Parent: 2, Name: "a.inner", Start: 20, End: 30},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 15, 2: 40, 3: 50, 4: 25, 5: 10} {
		if self[id] != want {
			t.Errorf("span %d self = %d, want %d", id, self[id], want)
		}
	}
}

// TestRunUnitsOverrun runs units that each overrun the whole run's plan, as
// on a host far slower than the nominal one: an untraced run still measures
// one unit, and a traced run one untraced and one traced unit.
func TestRunUnitsOverrun(t *testing.T) {
	for _, c := range []struct {
		tr   *tracer
		want []bool // per unit run: traced
	}{{nil, []bool{false}}, {newTracer(), []bool{false, true}}} {
		p := params{seconds: 5e-9, tr: c.tr} // five planned units of 1 ns
		var got []bool
		err := runUnits(p, time.Nanosecond, func(i int, tr *tracer) error {
			time.Sleep(time.Millisecond)
			got = append(got, tr != nil)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("traced=%v: units run (traced?) %v, want %v", c.tr != nil, got, c.want)
		}
	}
}

// runTiny sets w up and measures it once, as one process would.
func runTiny(t *testing.T, name string, w workload, seed int64, traced bool) report {
	t.Helper()
	p := params{workload: name, seed: seed, workers: 2, dir: t.TempDir()}
	if err := w.setup(p); err != nil {
		t.Fatalf("%s setup: %v", name, err)
	}
	if err := resetPeakRSS(); err != nil {
		t.Fatal(err)
	}
	if traced {
		p.tr = newTracer()
	}
	var r report
	if err := w.measure(p, &r); err != nil {
		t.Fatalf("%s measure: %v", name, err)
	}
	for _, n := range r.notes {
		t.Errorf("%s: %s", name, n)
	}
	if r.attempted == 0 || r.failed != 0 {
		t.Fatalf("%s: attempted=%d failed=%d", name, r.attempted, r.failed)
	}
	defs := perLayer
	if !traced {
		defs = endToEnd
		r.metrics = append([]metric{{"setup_s", "s", 1}}, r.metrics...)
		rss, err := peakRSSMB()
		if err != nil {
			t.Fatal(err)
		}
		r.add("peak_rss_mb", "MB", rss)
	} else {
		goRuntimeMetrics(&r)
	}
	if err := complete(&r, defs, traced); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return r
}

func TestFiguresMatchQuickGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("a quick-size figure sweep takes a few seconds")
	}
	b, err := os.ReadFile("../testdata/golden_all_quick.json")
	if err != nil {
		t.Skip("golden not reachable from here:", err)
	}
	rep, err := results.DecodeReport(b)
	if err != nil {
		t.Fatal(err)
	}
	q := experiments.Quick()
	f := newFigures(figSize{Uops: q.Uops, Warmup: q.Warmup, TracesPerGroup: q.TracesPerGroup})
	f.want = map[string]string{}
	for _, rec := range rep.Records {
		if f.want[rec.ID], err = recordDigest(rec); err != nil {
			t.Fatal(err)
		}
	}
	r := runTiny(t, "figures", f, 0, false) // seed 0: unshifted warmup
	if r.attempted != 8 {
		t.Fatalf("attempted %d records, want 8", r.attempted)
	}
}

func TestSmokeFigures(t *testing.T) {
	size := figSize{Uops: 8000, Warmup: 2000, TracesPerGroup: 1}
	for _, traced := range []bool{false, true} {
		f := newFigures(size)
		// The reference is a serial, store-less sweep of the same options.
		o := f.options(params{seed: 3})
		o.Pool = runner.NewIsolated(1, runner.NewCache())
		f.want = map[string]string{}
		for _, rec := range experiments.AllRecords(o) {
			d, err := recordDigest(rec)
			if err != nil {
				t.Fatal(err)
			}
			f.want[rec.ID] = d
		}
		runTiny(t, "figures", f, 3, traced)
	}
}

func TestSmokeServeWarm(t *testing.T) {
	for _, traced := range []bool{false, true} {
		r := runTiny(t, "serve_warm", newServeWarm(serveSize{Uops: 3000, Warmup: 1000, TracesPerGroup: 1}), 5, traced)
		if traced {
			for _, m := range r.metrics {
				if m.name == "runner.simulated" && m.value != 0 {
					t.Errorf("warm round simulated %v jobs", m.value)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists and the
// metrics the program reports in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not reachable from here:", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", what, i,
					got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	for _, wl := range doc.Workloads {
		if _, err := newWorkload(wl.Name); err != nil {
			t.Error(err)
		}
	}
}
