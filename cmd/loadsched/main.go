// Command loadsched reproduces the evaluation of "Speculation Techniques for
// Improving Load Related Instruction Scheduling" (Yoaz, Erez, Ronen,
// Jourdan; ISCA 1999) on synthetic workloads.
//
// Usage:
//
//	loadsched figure <5|6|7|8|9|10|11|12> [flags]   reproduce one paper figure
//	loadsched all [flags]                           reproduce every figure
//	loadsched run [flags]                           one simulation, full stats
//	loadsched sweep <kind> [flags]                  sensitivity sweep (window |
//	                                                penalty | chtsize | bankpolicies)
//	loadsched cpistack [flags]                      per-group CPI stack view
//	loadsched tournament [flags]                    race the policy zoo per group
//	loadsched serve [flags]                         HTTP job API over the pool
//	loadsched trace record|info [flags]             write or inspect a trace file
//	loadsched replay -f FILE [flags]                simulate a recorded trace file
//	loadsched traces                                list the trace groups
//
// The job commands are figure, all, sweep, cpistack and tournament. Each
// becomes one serve job, run here or, with -remote, by a server; both
// paths emit the same records. Their flags:
//
//	-uops N     measured uops per trace (default 200000, must be positive)
//	-warmup N   warmup uops per trace (default 40000, -1 = none)
//	-traces N   traces per group (default all)
//	-quick      small preset (60K uops, 2 traces/group)
//	-j N        concurrent simulations (default GOMAXPROCS, 1 = serial);
//	            output is byte-identical for every setting
//	-format F   output format: table (default) | json | csv; json/csv emit
//	            versioned records (schema loadsched.results/v1)
//	-out DIR    write one result file per record into DIR instead of stdout
//	-v          print a runner observability summary (jobs, memo hits,
//	            coalesces, disk hits, sim wall time) to stderr; with
//	            -format json the counters also ride in the report envelope
//	-store DIR  layer a persistent segment-log result store under the
//	            memo cache: results survive the process and later runs load
//	            them instead of simulating
//	-chart      (figure, all) also render bar charts under the tables
//	-group G    (sweep) trace group the sweep runs over (default SysmarkNT)
//	-remote A   submit the job to a running `loadsched serve` at address A
//	            (requires -format json or csv); records stream back and are
//	            re-emitted byte-identically to a local run. With -remote a
//	            command takes -uops, -warmup, -traces, -quick, -format, -out,
//	            -v, -chart and -group; -store, -j and the profiles act on a
//	            local run only, so naming one is a usage error
//	-cpuprofile/-memprofile/-trace F   write pprof / execution-trace data
//
// Flags (run):
//
//	-uops N -warmup N   measured and warmup uops
//	-group G -trace T   workload (default SysmarkNT/ex)
//	-scheme S           ordering scheme (traditional opportunistic postponing
//	                    inclusive exclusive perfect)
//	-window N           scheduling window size
//	-hmp P              hit-miss predictor (none local chooser perfect)
//	-json               print the run's statistics as JSON
//	-exectrace F        execution trace (run's -trace names the workload)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strconv"
	"strings"

	"loadsched/internal/experiments"
	"loadsched/internal/hitmiss"
	"loadsched/internal/memdep"
	"loadsched/internal/ooo"
	"loadsched/internal/results"
	"loadsched/internal/serve"
	"loadsched/internal/stats"
	"loadsched/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "figure":
		if len(args) < 1 {
			fatal("figure: missing number (5-12)")
		}
		runJob(serve.Job{Command: "figure", Figures: args[:1]}, args[1:])
	case "all", "cpistack", "tournament":
		runJob(serve.Job{Command: cmd}, args)
	case "sweep":
		if len(args) < 1 {
			fatal("sweep: missing kind (window | penalty | chtsize | bankpolicies)")
		}
		runJob(serve.Job{Command: "sweep", Sweep: args[0]}, args[1:])
	case "run":
		runSingle(args)
	case "serve":
		runServe(args)
	case "trace":
		runTraceCmd(args)
	case "replay":
		runReplay(args)
	case "traces":
		listTraces(args)
	case "help", "-h", "--help":
		usage()
	default:
		fatal("unknown command %q", cmd)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `loadsched — ISCA'99 load-scheduling speculation reproduction
commands:
  figure <5..12> [flags]  reproduce one paper figure
  all [flags]             reproduce all figures
  run [flags]             single simulation with full statistics
  sweep <kind> [flags]    sensitivity sweeps: window | penalty | chtsize | bankpolicies
  cpistack [flags]        attribute every cycle to a stall cause per group
  tournament [flags]      race the related-work policy zoo per trace group
  serve [flags]           HTTP job API: -addr -store -j -jobs -queue
  trace record|info       trace-file toolbox: write (v2), validate, inspect
  replay -f f [flags]     simulate a recorded trace file (streamed, constant RSS)
  traces                  list trace groups and members
the job commands (figure, all, sweep, cpistack, tournament) take -uops
-warmup -traces -quick -j, -format table|json|csv, -out DIR, -v,
-cpuprofile -memprofile -trace, plus -chart (figure, all) and -group (sweep);
-store DIR layers a persistent result store under the memo cache;
-remote ADDR submits the job to a running 'loadsched serve' instead, and
then takes neither -store nor -j nor a profile;
'run' also takes -group -trace -scheme -window -hmp -json (and -exectrace
in place of -trace for execution tracing)`)
}

func fatal(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "loadsched: "+format+"\n", a...)
	os.Exit(1)
}

// parseFlags parses a subcommand's arguments and rejects any left over.
// flag stops at the first argument that is not a flag, so a stray word
// would otherwise drop itself and every flag after it silently; instead it
// is a usage error (exit 2, as for a bad flag) that names the leftovers.
func parseFlags(fs *flag.FlagSet, args []string) {
	_ = fs.Parse(args)
	if fs.NArg() == 0 {
		return
	}
	quoted := make([]string, fs.NArg())
	for i, a := range fs.Args() {
		quoted[i] = strconv.Quote(a)
	}
	usageError(fs, "unexpected arguments %s", strings.Join(quoted, " "))
}

// usageError reports a misuse of fs's command, prints the command's flags
// and exits 2, as flag does for a flag it cannot parse.
func usageError(fs *flag.FlagSet, format string, a ...any) {
	fmt.Fprintf(fs.Output(), "loadsched %s: %s\n", fs.Name(), fmt.Sprintf(format, a...))
	fs.Usage()
	os.Exit(2)
}

func optionFlags(fs *flag.FlagSet) *experiments.Options {
	o := experiments.DefaultOptions()
	fs.IntVar(&o.Uops, "uops", o.Uops, "measured uops per trace")
	fs.IntVar(&o.Warmup, "warmup", o.Warmup, "warmup uops per trace (-1 = none)")
	fs.IntVar(&o.TracesPerGroup, "traces", o.TracesPerGroup, "traces per group (0 = all)")
	fs.IntVar(&o.Workers, "j", o.Workers, "concurrent simulations (0 = GOMAXPROCS, 1 = serial)")
	return &o
}

// applyQuick replaces the options with the quick preset, keeping -j, which
// the preset does not cover.
func applyQuick(o *experiments.Options) {
	workers := o.Workers
	*o = experiments.Quick()
	o.Workers = workers
}

// outputOptions are the observability and emission flags shared by the job
// commands; run registers only the profiling ones.
type outputOptions struct {
	format     string
	out        string
	verbose    bool
	store      string
	remote     string
	cpuprofile string
	memprofile string
	traceFile  string
}

func outputFlags(fs *flag.FlagSet) *outputOptions {
	op := &outputOptions{}
	fs.StringVar(&op.format, "format", "table", "output format: table | json | csv")
	fs.StringVar(&op.out, "out", "", "write one result file per record into this directory")
	fs.BoolVar(&op.verbose, "v", false, "print a runner observability summary to stderr")
	fs.StringVar(&op.store, "store", "", "persistent result store directory (disk-backed second-level cache)")
	fs.StringVar(&op.remote, "remote", "", "submit the job to a `loadsched serve` address instead of simulating locally")
	op.profileFlags(fs, "trace")
	return op
}

// profileFlags registers just the profiling flags. The execution-trace flag
// name is a parameter because `run` already uses -trace for its workload
// trace name and registers -exectrace instead.
func (op *outputOptions) profileFlags(fs *flag.FlagSet, traceFlag string) {
	fs.StringVar(&op.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&op.memprofile, "memprofile", "", "write an allocation profile to this file")
	fs.StringVar(&op.traceFile, traceFlag, "", "write a runtime execution trace to this file")
}

// startProfiling starts the requested pprof/trace collectors and returns the
// function that stops them and writes the profiles out. Stops check the
// file Close errors: a profile truncated by a close-time flush failure
// looks valid to pprof until deep into analysis, so it must fail loudly
// here instead.
func (op *outputOptions) startProfiling() func() {
	var stops []func()
	if op.cpuprofile != "" {
		f, err := os.Create(op.cpuprofile)
		if err != nil {
			fatal("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("cpuprofile: %v", err)
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fatal("cpuprofile: %v", err)
			}
		})
	}
	if op.traceFile != "" {
		f, err := os.Create(op.traceFile)
		if err != nil {
			fatal("trace: %v", err)
		}
		if err := rtrace.Start(f); err != nil {
			fatal("trace: %v", err)
		}
		stops = append(stops, func() {
			rtrace.Stop()
			if err := f.Close(); err != nil {
				fatal("trace: %v", err)
			}
		})
	}
	if op.memprofile != "" {
		path := op.memprofile
		stops = append(stops, func() {
			f, err := os.Create(path)
			if err != nil {
				fatal("memprofile: %v", err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				fatal("memprofile: %v", err)
			}
			if err := f.Close(); err != nil {
				fatal("memprofile: %v", err)
			}
		})
	}
	return func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
}

func runSingle(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	o := optionFlags(fs)
	group := fs.String("group", trace.GroupSysmarkNT, "trace group")
	traceName := fs.String("trace", "ex", "trace name within the group")
	scheme := fs.String("scheme", "traditional", "memory ordering scheme")
	window := fs.Int("window", 32, "scheduling window entries")
	hmp := fs.String("hmp", "none", "hit-miss predictor: none local chooser perfect")
	asJSON := fs.Bool("json", false, "print the statistics as JSON")
	op := &outputOptions{}
	op.profileFlags(fs, "exectrace")
	parseFlags(fs, args)

	p, ok := trace.TraceByName(*group, *traceName)
	if !ok {
		fatal("unknown trace %s/%s (see 'loadsched traces')", *group, *traceName)
	}
	cfg, err := runConfig(*scheme, *hmp, *window, o.EffectiveWarmup(), o.Uops)
	if err != nil {
		fatal("run: %v", err)
	}

	stop := op.startProfiling()
	defer stop()
	e := ooo.NewEngine(cfg, trace.Replay(p))
	st := e.Run(o.Uops)
	if *asJSON {
		printRunJSON(*group, *traceName, cfg, st)
		return
	}
	printRunStats(*group, *traceName, cfg, st)
}

// runConfig builds the machine `loadsched run` simulates from its flags,
// rejecting what NewEngine or Run would panic on.
func runConfig(scheme, hmp string, window, warmup, uops int) (ooo.Config, error) {
	if uops < 1 {
		return ooo.Config{}, fmt.Errorf("-uops must be positive, got %d", uops)
	}
	cfg, err := machineConfig(scheme, window, warmup)
	if err != nil {
		return cfg, err
	}
	switch hmp {
	case "none":
	case "local":
		cfg.HMP = hitmiss.NewLocal()
	case "chooser":
		cfg.HMP = hitmiss.NewChooser()
	case "perfect":
		cfg.HMP = &hitmiss.Perfect{}
	default:
		return cfg, fmt.Errorf("unknown hmp %q", hmp)
	}
	return cfg, nil
}

// machineConfig builds the baseline machine with the flags `run` and
// `replay` share, checked by Config.Validate.
func machineConfig(scheme string, window, warmup int) (ooo.Config, error) {
	cfg := ooo.DefaultConfig()
	cfg.Window = window
	cfg.WarmupUops = warmup
	var ok bool
	if cfg.Scheme, ok = parseScheme(scheme); !ok {
		return cfg, fmt.Errorf("unknown scheme %q", scheme)
	}
	if cfg.Scheme.UsesCHT() {
		cfg.CHT = memdep.NewFullCHT(2048, 4, 2, true)
	}
	return cfg, cfg.Validate()
}

func parseScheme(s string) (memdep.Scheme, bool) {
	for _, sc := range memdep.Schemes() {
		if strings.EqualFold(sc.String(), s) {
			return sc, true
		}
	}
	return 0, false
}

// printRunJSON emits one run's full statistics as JSON — the single-run
// counterpart of the figure records (raw ooo.Stats, not a results record).
func printRunJSON(group, name string, cfg ooo.Config, st ooo.Stats) {
	env := struct {
		Schema string    `json:"schema"`
		Group  string    `json:"group"`
		Trace  string    `json:"trace"`
		Scheme string    `json:"scheme"`
		Window int       `json:"window"`
		IPC    float64   `json:"ipc"`
		Stats  ooo.Stats `json:"stats"`
	}{results.SchemaVersion, group, name, cfg.Scheme.String(), cfg.Window, st.IPC(), st}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(env); err != nil {
		fatal("json: %v", err)
	}
}

func printRunStats(group, name string, cfg ooo.Config, st ooo.Stats) {
	label := group + "/" + name
	if group == "file" {
		label = name
	}
	fmt.Printf("%s  scheme=%v window=%d\n", label, cfg.Scheme, cfg.Window)
	fmt.Printf("  cycles=%d uops=%d IPC=%.3f\n", st.Cycles, st.Uops, st.IPC())
	fmt.Printf("  loads=%d stores=%d branches=%d (mispredicted %d)\n",
		st.Loads, st.Stores, st.Branches, st.BranchMispredicts)
	c := st.Class
	fmt.Printf("  classification: AC=%s ANC=%s no-conflict=%s\n",
		stats.Pct(c.FracOfLoads(c.AC())), stats.Pct(c.FracOfLoads(c.ANC())),
		stats.Pct(c.FracOfLoads(c.NotConflicting)))
	fmt.Printf("  collisions=%d  L1 miss=%s  L2 miss=%d\n",
		st.Collisions, stats.Pct(st.L1MissRate()), st.L2Misses)
	hm := st.HM
	fmt.Printf("  hit-miss: AH-PH=%d AH-PM=%d AM-PH=%d AM-PM=%d\n",
		hm.AHPH, hm.AHPM, hm.AMPH, hm.AMPM)
	cp := st.CPI
	share := func(v int64) string {
		if st.Cycles == 0 {
			return stats.Pct(0)
		}
		return stats.Pct(float64(v) / float64(st.Cycles))
	}
	fmt.Printf("  cpi stack: base=%s frontend=%s window=%s ports=%s ordering=%s\n",
		share(cp.Base), share(cp.Frontend), share(cp.WindowFull),
		share(cp.PortContention), share(cp.OrderingWait))
	fmt.Printf("             bank=%s coll-rec=%s miss-replay=%s data=%s (sum %d/%d cycles)\n",
		share(cp.BankConflict), share(cp.CollisionRecovery), share(cp.MissReplay),
		share(cp.DataStall), cp.Total(), st.Cycles)
}

func listTraces(args []string) {
	parseFlags(flag.NewFlagSet("traces", flag.ExitOnError), args)
	for _, g := range trace.Groups() {
		fmt.Printf("%s (%d traces):", g.Name, len(g.Traces))
		for _, t := range g.Traces {
			fmt.Printf(" %s", t.Name)
		}
		fmt.Println()
	}
}
