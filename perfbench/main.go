// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per process and prints every metric by name with its unit,
// then, as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Untraced runs (-trace 0) report the end-to-end metrics; a traced run
// (-trace 1) reports the per-layer metrics. README.md lists the workloads,
// the metrics and which end-to-end metric each layer metric should move.
//
// Run it from the repository root through run.sh, which builds this
// package and execs it:
//
//	bash perfbench/run.sh --workload figures --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many times a run sets its workload up: once in the
// measuring process and setupRepeats-1 times in child processes, so every
// sample pays the same cold costs (process-wide trace recordings cannot be
// dropped and rebuilt in one process). setup_s is their median.
const setupRepeats = 3

// workload is one benchmark workload. setup builds its inputs (timed as
// setup_s); measure runs the timed phase for p.seconds and fills r.
type workload interface {
	setup(p params) error
	measure(p params, r *report) error
}

// newWorkload returns the named workload at benchmark size.
func newWorkload(name string) (workload, error) {
	switch name {
	case "figures":
		return newFigures(benchFigures), nil
	case "serve_warm":
		return newServeWarm(benchServe), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want figures | serve_warm)", name)
}

// units is how many timed units (sweeps or rounds) a run measures: as many
// as fill p.seconds at the unit's nominal length on a 2-vCPU host, and at
// least one. The count follows from the settings, not from how fast this
// run happens to go, so every run of a workload rests on the same number
// of samples; a traced run measures as many, every other one untraced
// (see unitTracer).
func units(p params, nominal time.Duration) int {
	n := int(math.Round(p.seconds / nominal.Seconds()))
	if n < 1 {
		n = 1
	}
	if p.tr != nil && n < 2 {
		n = 2
	}
	return n
}

// runUnits calls unit for each of a run's timed units with the unit's
// tracer. On a much slower host it stops once the run has taken twice its
// planned length, but never before the first unit, nor, in a traced run,
// before one untraced and one traced unit.
func runUnits(p params, nominal time.Duration, unit func(i int, tr *tracer) error) error {
	n, least := units(p, nominal), 1
	if p.tr != nil {
		least = 2
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if i >= least && time.Since(start) > 2*time.Duration(n)*nominal {
			break
		}
		if err := unit(i, unitTracer(p, i)); err != nil {
			return err
		}
	}
	return nil
}

// unitTracer is the tracer for the i-th timed unit (sweep or round) of a
// run. A traced run leaves every other unit untraced, starting with
// the first, as the reference for bench.tracing_overhead_frac.
func unitTracer(p params, i int) *tracer {
	if i%2 == 0 {
		return nil
	}
	return p.tr
}

// params are one run's settings.
type params struct {
	workload string
	seed     int64
	seconds  float64
	workers  int    // simulation workers and client connections
	dir      string // scratch directory inside the checkout
	tr       *tracer
}

// variant maps a seed onto one of the input variants the expected outputs
// cover; equal seeds always give equal inputs.
func (p params) variant() int { return int(((p.seed % variants) + variants) % variants) }

// report collects one run's outcome.
type report struct {
	attempted, failed int
	metrics           []metric
	// samples records, per percentile metric, how many samples it rests on
	// and which percentile was reported.
	samples map[string]pct
	notes   []string // oracle failures, for the log
}

type metric struct {
	name, unit string
	value      float64
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

// check counts one attempted operation and whether it failed.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.notes) < 20 {
			r.notes = append(r.notes, fmt.Sprintf(format, args...))
		}
	}
}

// addPct adds a percentile metric and records which percentile it is and
// how many samples it rests on.
func (r *report) addPct(name, unit string, v pct) {
	r.add(name, unit, v.value)
	if r.samples == nil {
		r.samples = map[string]pct{}
	}
	r.samples[name] = v
}

// latency adds job_p50_ms and job_p99_ms over ds.
func (r *report) latency(ds []time.Duration) {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(time.Millisecond)
	}
	r.addPct("job_p50_ms", "ms", percentile(xs, 50))
	r.addPct("job_p99_ms", "ms", percentile(xs, 99))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "figures | serve_warm")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	setupOnly := fs.Bool("setup-only", false, "set the workload up once and print its set-up seconds")
	writeExpected := fs.String("write-expected", "", "regenerate the expected outputs into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeExpected != "" {
		if err := regenerateExpected(*writeExpected, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, err := newWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	workers := runtime.NumCPU()
	if workers > 2 {
		workers = 2
	}
	if runtime.GOMAXPROCS(0) > workers {
		runtime.GOMAXPROCS(workers)
	}
	dir, err := scratchDir(*name, *seed, *setupOnly)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	p := params{workload: *name, seed: *seed, seconds: *seconds, workers: workers, dir: dir}

	if *setupOnly {
		start := time.Now()
		if err := w.setup(p); err != nil {
			fmt.Fprintln(stderr, "perfbench: setup:", err)
			return 1
		}
		fmt.Fprintln(stdout, strconv.FormatFloat(time.Since(start).Seconds(), 'g', -1, 64))
		return 0
	}

	setups, err := childSetups(args)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	start := time.Now()
	if err := w.setup(p); err != nil {
		fmt.Fprintln(stderr, "perfbench: setup:", err)
		return 1
	}
	setups = append(setups, time.Since(start).Seconds())
	if err := resetPeakRSS(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	var r report
	if *traced == 1 {
		p.tr = newTracer()
	}
	if err := w.measure(p, &r); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *traced == 0 {
		// setup_s first and peak_rss_mb last: the workload adds the rest.
		r.metrics = append([]metric{{"setup_s", "s", median(setups)}}, r.metrics...)
		var rss float64
		if rss, err = peakRSSMB(); err == nil {
			r.add("peak_rss_mb", "MB", rss)
			err = complete(&r, endToEnd, false)
		}
	} else {
		goRuntimeMetrics(&r)
		err = complete(&r, perLayer, true)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *traced == 1 {
		path, err := p.tr.write(p, r)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Fprintln(stdout, "spans:", path)
	}
	return emit(stdout, stderr, p, *traced == 1, setups, &r)
}

// emit prints provenance, every metric with its unit, and the result line.
func emit(stdout, stderr io.Writer, p params, traced bool, setups []float64, r *report) int {
	for _, n := range r.notes {
		fmt.Fprintln(stderr, "perfbench: check failed:", n)
	}
	prov := provenance(p, traced, setups, r)
	pj, err := json.Marshal(prov)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "provenance %s\n", pj)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, map[string]value{}}
	for _, m := range r.metrics {
		fmt.Fprintf(stdout, "%-34s %18.6g %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// childSetups runs the extra set-up samples, each in a fresh process so
// none of them finds the previous one's recordings or caches.
func childSetups(args []string) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own binary: %w", err)
	}
	var out []float64
	for i := 1; i < setupRepeats; i++ {
		cmd := exec.Command(self, append(append([]string(nil), args...), "-setup-only")...)
		cmd.Stderr = os.Stderr
		// A child must not outlive a run that is killed while it waits.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		s, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up child printed %q: %w", b, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// buildDir is where builds and run artefacts live inside the checkout.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// scratchDir makes a per-process scratch directory under the build dir.
func scratchDir(name string, seed int64, child bool) (string, error) {
	base := filepath.Join(buildDir(), "perfbench", "scratch")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	tag := "main"
	if child {
		tag = "setup"
	}
	return os.MkdirTemp(base, fmt.Sprintf("%s-%d-%s-", name, seed, tag))
}

// resetPeakRSS returns freed heap to the operating system and restarts the
// process's peak resident set (VmHWM) from the current one, so peak_rss_mb
// covers the timed phase: what set-up keeps live (figures' recordings,
// serve_warm's job set) counts, set-up's garbage does not.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("reading peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("reading peak RSS: no VmHWM in /proc/self/status")
}

// goRuntimeMetrics adds the Go runtime's allocation and GC totals.
func goRuntimeMetrics(r *report) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.add("go.alloc_mb", "MB", float64(ms.TotalAlloc)/(1<<20))
	r.add("go.gc_count", "count", float64(ms.NumGC))
	r.add("go.gc_pause_ms", "ms", float64(ms.PauseTotalNs)/1e6)
}

// provenance is what every output records about where it came from.
func provenance(p params, traced bool, setups []float64, r *report) map[string]any {
	commit, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	names := make([]string, 0, len(r.samples))
	for n := range r.samples {
		names = append(names, n)
	}
	sort.Strings(names)
	samples := map[string]any{}
	for _, n := range names {
		samples[n] = map[string]any{"percentile": r.samples[n].p, "samples": r.samples[n].n}
	}
	return map[string]any{
		"workload":    p.workload,
		"seed":        p.seed,
		"variant":     p.variant(),
		"seconds":     p.seconds,
		"traced":      traced,
		"commit":      commit,
		"dirty":       dirty,
		"go":          runtime.Version(),
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"workers":     p.workers,
		"connections": p.workers,
		"setup_s":     setups,
		"samples":     samples,
	}
}
