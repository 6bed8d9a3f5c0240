package main

import (
	"flag"
	"fmt"
	"os"

	"loadsched/internal/experiments"
	"loadsched/internal/ooo"
	"loadsched/internal/results"
	"loadsched/internal/runner"
	"loadsched/internal/serve"
	"loadsched/internal/trace"
)

// runSweep implements `loadsched sweep <kind>`: sensitivity sweeps beyond
// the paper's figures — window size, collision penalty, CHT size — useful
// for exploring the design space the paper's constants sit in. The sweep
// logic itself lives in experiments.SweepTable so `loadsched serve` runs
// the identical computation.
func runSweep(args []string) {
	if len(args) < 1 {
		fatal("sweep: missing kind (window | penalty | chtsize | bankpolicies)")
	}
	kind := args[0]
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	o := optionFlags(fs)
	group := fs.String("group", trace.GroupSysmarkNT, "trace group")
	quick := fs.Bool("quick", false, "small fast preset")
	op := outputFlags(fs)
	parseFlags(fs, args[1:])
	if *quick {
		applyQuick(o)
	}
	if op.remote != "" {
		runRemote(op, serve.Job{Command: "sweep", Sweep: kind, Group: *group}, "sweep "+kind, o)
		return
	}
	op.attachStore()
	stop := op.startProfiling()
	defer stop()

	pool := runner.New(o.Workers)
	o.Pool = pool
	t, err := experiments.SweepTable(kind, *group, *o)
	if err != nil {
		fatal("%v", err)
	}
	switch op.format {
	case "table":
		if op.out != "" {
			writeOut(op.out, "sweep-"+kind+".txt", []byte(t.String()))
		} else {
			t.Render(os.Stdout)
		}
	case "json", "csv":
		// Sweeps emit table-shaped records: positional string cells under
		// the rendered table's column names.
		rec := results.NewTable("sweep-"+kind, t.Title, t.Note,
			results.Options{Uops: o.Uops, Warmup: o.Warmup, TracesPerGroup: o.TracesPerGroup},
			t.Columns, t.Rows)
		report := results.NewReport("sweep "+kind, rec.Options, []results.Record{rec})
		if op.verbose {
			rc := runnerCounters(pool)
			report.Runner = &rc
		}
		if err := report.Validate(); err != nil {
			fatal("internal: %v", err)
		}
		emitReport(report, op)
	default:
		fatal("unknown format %q (want table | json | csv)", op.format)
	}
	if op.verbose {
		fmt.Fprintln(os.Stderr, runnerCounters(pool))
	}
}

// runRecord implements `loadsched record`: serialize a synthetic trace.
func runRecord(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	group := fs.String("group", trace.GroupSysmarkNT, "trace group")
	traceName := fs.String("trace", "ex", "trace name")
	n := fs.Int("n", 300_000, "uops to record")
	out := fs.String("o", "", "output file (required)")
	parseFlags(fs, args)
	if *out == "" {
		fatal("record: -o <file> is required")
	}
	p, ok := trace.TraceByName(*group, *traceName)
	if !ok {
		fatal("unknown trace %s/%s", *group, *traceName)
	}
	if err := trace.WriteTraceFile(*out, p, *n); err != nil {
		fatal("record: %v", err)
	}
	fmt.Printf("recorded %d uops of %s/%s to %s\n", *n, *group, *traceName, *out)
}

// runReplay implements `loadsched replay`: simulate a recorded trace file.
func runReplay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	file := fs.String("f", "", "trace file (required)")
	scheme := fs.String("scheme", "traditional", "memory ordering scheme")
	window := fs.Int("window", 32, "scheduling window entries")
	warmup := fs.Int("warmup", 40_000, "warmup uops")
	uops := fs.Int("uops", 0, "measured uops (default: file length - warmup)")
	parseFlags(fs, args)
	if *file == "" {
		fatal("replay: -f <file> is required")
	}
	// Stream the file instead of materializing it: replay memory stays
	// O(one decoded chunk) no matter how long the trace is.
	rd, err := trace.StreamTraceFile(*file)
	if err != nil {
		fatal("replay: %v", err)
	}
	defer rd.Close()
	cfg, err := machineConfig(*scheme, *window, *warmup)
	if err != nil {
		fatal("replay: %v", err)
	}
	n := *uops
	if n <= 0 {
		n = int(rd.Uops()) - *warmup
		if n <= 0 {
			fatal("replay: trace shorter than warmup")
		}
	}
	st := ooo.NewEngine(cfg, rd).Run(n)
	printRunStats("file", *file, cfg, st)
}
