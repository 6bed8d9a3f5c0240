// Package loadsched reproduces "Speculation Techniques for Improving Load
// Related Instruction Scheduling" (Adi Yoaz, Mattan Erez, Ronny Ronen,
// Stephan Jourdan; ISCA 1999) as a library: a trace-driven out-of-order
// machine simulator plus the paper's three speculation techniques —
// memory-dependence (collision) prediction, data-cache hit-miss prediction,
// and cache-bank prediction.
//
// The facade wires together the internal packages for the common cases:
//
//	res := loadsched.Run(loadsched.Workload{Group: "SysmarkNT", Trace: "ex"},
//	    loadsched.Machine{Scheme: loadsched.Inclusive})
//	fmt.Println(res.IPC(), res.Speedup)
//
// For full control (custom CHT geometries, banked-cache policies, hit-miss
// predictor stacks, synthetic workload profiles) use the internal packages
// directly; examples/ shows both styles.
package loadsched

import (
	"fmt"

	"loadsched/internal/experiments"
	"loadsched/internal/hitmiss"
	"loadsched/internal/memdep"
	"loadsched/internal/ooo"
	"loadsched/internal/results"
	"loadsched/internal/runner"
	"loadsched/internal/trace"
)

// NoWarmup requests an explicitly empty warmup region. A Workload.Warmup of
// zero means "default" (40000 uops); NoWarmup (or any negative value) means
// measurement starts at the first uop.
const NoWarmup = experiments.NoWarmup

// Scheme selects the memory reference ordering method (§3.1 of the paper).
type Scheme = memdep.Scheme

// The six ordering schemes.
const (
	// Traditional is the P6-style baseline: loads wait for all older store
	// addresses.
	Traditional = memdep.Traditional
	// Opportunistic advances every load as early as possible.
	Opportunistic = memdep.Opportunistic
	// Postponing holds CHT-predicted colliding loads for all older store
	// data.
	Postponing = memdep.Postponing
	// Inclusive advances predicted non-colliding loads past all stores.
	Inclusive = memdep.Inclusive
	// Exclusive additionally predicts the collision distance.
	Exclusive = memdep.Exclusive
	// Perfect is oracle disambiguation.
	Perfect = memdep.Perfect
)

// HMP selects the hit-miss predictor for a Machine.
type HMP string

// Hit-miss predictor choices.
const (
	// HMPNone models today's always-hit scheduling.
	HMPNone HMP = "none"
	// HMPLocal is the 2048-entry local predictor of §2.2.
	HMPLocal HMP = "local"
	// HMPChooser is the hybrid local+gshare+gskew majority predictor.
	HMPChooser HMP = "chooser"
	// HMPPerfect is the oracle.
	HMPPerfect HMP = "perfect"
)

// Workload names a synthetic trace: one of the paper's seven groups and a
// member trace. Zero values default to SysmarkNT/ex.
type Workload struct {
	Group string
	Trace string
	// Uops is the measured length (default 200000).
	Uops int
	// Warmup is the unmeasured prefix (default 40000). Set NoWarmup (or any
	// negative value) to measure from the first uop; zero takes the default.
	Warmup int
}

// Machine selects the interesting knobs of the §3.1 machine; zero values
// take the paper's baseline (32-entry window, 2 int / 2 mem / 1 FP /
// 2 complex units, Traditional ordering, always-hit scheduling).
type Machine struct {
	Scheme Scheme
	// Window is the scheduling-window size (default 32).
	Window int
	// IntUnits / MemUnits widen the machine (defaults 2 / 2).
	IntUnits, MemUnits int
	// HMP selects the hit-miss predictor (default HMPNone).
	HMP HMP
	// TimingHMP adds the outstanding-miss-queue enhancement to HMP.
	TimingHMP bool
	// CHTEntries sizes the Full CHT used by CHT schemes (default 2048).
	CHTEntries int
}

// Result is one simulation's outcome.
type Result struct {
	ooo.Stats
	// Workload and Machine echo the request.
	Workload Workload
	Machine  Machine
}

// Run simulates one workload on one machine. Results are memoized on the
// process-wide cache: repeating a (workload, machine) pair returns the
// recorded statistics without re-simulating.
func Run(w Workload, m Machine) (Result, error) {
	w = w.withDefaults()
	p, ok := trace.TraceByName(w.Group, w.Trace)
	if !ok {
		return Result{}, fmt.Errorf("loadsched: unknown trace %s/%s", w.Group, w.Trace)
	}
	h, err := m.handle(w.warmup())
	if err != nil {
		return Result{}, err
	}
	st := runner.New(1).Do(runner.Job{Machine: h, Profile: p, Uops: w.Uops})
	return Result{Stats: st, Workload: w, Machine: m}, nil
}

// Compare runs the workload under every ordering scheme and returns the
// speedups over Traditional — the experiment of Figure 7 for one trace. The
// schemes run concurrently on the process-wide pool; Traditional is
// simulated once, serving both as the denominator and as its own entry,
// which is therefore exactly 1.0.
func Compare(w Workload, m Machine) (map[Scheme]float64, error) {
	wd := w.withDefaults()
	p, ok := trace.TraceByName(wd.Group, wd.Trace)
	if !ok {
		return nil, fmt.Errorf("loadsched: unknown trace %s/%s", wd.Group, wd.Trace)
	}
	schemes := memdep.Schemes() // schemes[0] is Traditional
	jobs := make([]runner.Job, len(schemes))
	for i, s := range schemes {
		ms := m
		ms.Scheme = s
		h, err := ms.handle(w.warmup())
		if err != nil {
			return nil, err
		}
		jobs[i] = runner.Job{Machine: h, Profile: p, Uops: wd.Uops}
	}
	sts := runner.New(0).Run(jobs)
	out := make(map[Scheme]float64, len(schemes))
	base := sts[0].IPC()
	for i, s := range schemes {
		out[s] = sts[i].IPC() / base
	}
	out[Traditional] = 1.0
	return out, nil
}

func (w Workload) withDefaults() Workload {
	if w.Group == "" {
		w.Group = trace.GroupSysmarkNT
	}
	if w.Trace == "" {
		w.Trace = "ex"
	}
	if w.Uops == 0 {
		w.Uops = 200_000
	}
	if w.Warmup == 0 {
		w.Warmup = 40_000
	}
	return w
}

// warmup resolves the workload's warmup length after defaults: negative
// (NoWarmup) means an explicitly empty warmup region.
func (w Workload) warmup() int {
	wu := w.withDefaults().Warmup
	if wu < 0 {
		return 0
	}
	return wu
}

// handle validates the machine and wraps it as the runner's machine point
// for the given warmup length, its keys derived once.
func (m Machine) handle(warmup int) (*runner.Machine, error) {
	if _, err := m.config(); err != nil {
		return nil, err
	}
	return runner.NewMachine(func() ooo.Config {
		cfg, _ := m.config()
		return cfg
	}, warmup), nil
}

func (m Machine) config() (ooo.Config, error) {
	cfg := ooo.DefaultConfig()
	cfg.Scheme = m.Scheme
	if m.Window > 0 {
		cfg.Window = m.Window
	}
	if m.IntUnits > 0 {
		cfg.IntUnits = m.IntUnits
	}
	if m.MemUnits > 0 {
		cfg.MemUnits = m.MemUnits
	}
	if cfg.Scheme.UsesCHT() {
		n := m.CHTEntries
		if n == 0 {
			n = 2048
		}
		cfg.CHT = memdep.NewFullCHT(n, 4, 2, true)
	}
	switch m.HMP {
	case "", HMPNone:
	case HMPLocal:
		cfg.HMP = hitmiss.NewLocal()
	case HMPChooser:
		cfg.HMP = hitmiss.NewChooser()
	case HMPPerfect:
		cfg.HMP = &hitmiss.Perfect{}
	default:
		return cfg, fmt.Errorf("loadsched: unknown HMP %q", m.HMP)
	}
	cfg.UseTimingHMP = m.TimingHMP
	return cfg, nil
}

// CPIBreakdown re-exports the per-cause cycle partition every simulation
// collects: each cycle of Stats.Cycles lands in exactly one cause bucket, so
// the causes sum to the total by construction.
type CPIBreakdown = ooo.CPIStack

// CPIStack simulates one workload on one machine and returns its cycle
// attribution — where the cycles went, by stall cause. It shares the
// process-wide memo cache with Run, so pairing the two costs one simulation.
func CPIStack(w Workload, m Machine) (CPIBreakdown, error) {
	res, err := Run(w, m)
	if err != nil {
		return CPIBreakdown{}, err
	}
	return res.Stats.CPI, nil
}

// Groups lists the seven synthetic trace groups with their member names.
func Groups() map[string][]string {
	out := map[string][]string{}
	for _, g := range trace.Groups() {
		for _, t := range g.Traces {
			out[g.Name] = append(out[g.Name], t.Name)
		}
	}
	return out
}

// Figures re-exports the experiment options type for driving full paper
// figures from library code (see internal/experiments for the FigN
// functions, and cmd/loadsched for the CLI).
type Figures = experiments.Options

// Report re-exports the machine-readable results envelope: versioned,
// typed records (schema results.SchemaVersion) for figures and sweeps,
// emitted as JSON or CSV by the internal/results package.
type Report = results.Report

// FigureReport runs the named figure records ("fig5".."fig12",
// "bankpolicies", "cpistack", or "tournament"; none = all eight paper
// figures) under o and
// returns the
// structured report — the library counterpart of `loadsched all -format
// json`. Record contents are a pure function of o (worker count excluded),
// so reports are identical for every Workers setting.
func FigureReport(o Figures, figures ...string) (Report, error) {
	if len(figures) == 0 {
		figures = experiments.FigureIDs
	}
	recs := make([]results.Record, 0, len(figures))
	for _, id := range figures {
		rec, err := experiments.FigureRecord(id, o)
		if err != nil {
			return Report{}, err
		}
		recs = append(recs, rec)
	}
	rep := results.NewReport("library", results.Options{
		Uops: o.Uops, Warmup: o.Warmup, TracesPerGroup: o.TracesPerGroup}, recs)
	if err := rep.Validate(); err != nil {
		return Report{}, err
	}
	return rep, nil
}
