package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"loadsched/internal/experiments"
	"loadsched/internal/results"
	"loadsched/internal/runner"
	"loadsched/internal/serve"
	"loadsched/internal/trace"
)

// runJob implements the job commands: figure, all, sweep, cpistack and
// tournament. The flags complete job, which then runs locally through
// serve.Execute or, with -remote, on a `loadsched serve` through
// serve.Client; either way the results reach the same emit path, so a
// remote run prints exactly what a local one does.
func runJob(job serve.Job, args []string) {
	fs := flag.NewFlagSet(job.Command, flag.ExitOnError)
	o := optionFlags(fs)
	quick := fs.Bool("quick", false, "small fast preset")
	// Only figures chart, and each figure's table ends with a blank line.
	figure := job.Command == "figure" || job.Command == "all"
	var chart bool
	if figure {
		fs.BoolVar(&chart, "chart", false, "also render bar charts (table format)")
	}
	if job.Command == "sweep" {
		// Left empty unless given, so that serve.Validate can refuse a
		// group the sweep would ignore; serve picks the default.
		fs.StringVar(&job.Group, "group", "", "trace group (default "+trace.GroupSysmarkNT+"; bankpolicies takes none)")
	}
	op := outputFlags(fs)
	parseFlags(fs, args)
	if op.remote != "" {
		// These act on the process that simulates, so a -remote run would
		// silently drop them.
		var local []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "store", "j", "cpuprofile", "memprofile", "trace":
				local = append(local, "-"+f.Name)
			}
		})
		if len(local) > 0 {
			usageError(fs, "-remote runs the job on the server, so it cannot take %s", strings.Join(local, " "))
		}
	}
	if *quick {
		applyQuick(o)
	}
	job.Options = results.Options{Uops: o.Uops, Warmup: o.Warmup, TracesPerGroup: o.TracesPerGroup}
	switch {
	case op.format != "table" && op.format != "json" && op.format != "csv":
		fatal("unknown format %q (want table | json | csv)", op.format)
	case op.remote != "" && op.format == "table":
		fatal("-remote requires -format json or csv (tables render locally; ask for json)")
	}
	if err := serve.Validate(job); err != nil {
		fatal("%v", err)
	}

	// Tables print as each result arrives; records are collected into one
	// report and written once the job is done.
	report := results.NewReport(job.Name(), job.Options, nil)
	emit := func(res experiments.Result) error {
		if op.format != "table" {
			report.Records = append(report.Records, res.Record)
			return nil
		}
		t := res.Table()
		text := t.String()
		if chart && res.Chart != nil {
			text += "\n" + res.Chart().String()
		}
		if op.out != "" {
			writeOut(op.out, res.Record.ID+".txt", []byte(text))
			return nil
		}
		if figure {
			text += "\n"
		}
		_, err := os.Stdout.WriteString(text)
		return err
	}
	var counters results.RunnerCounters
	if op.remote != "" {
		// The server's per-job counters stand in for a local pool's: that
		// is how a client proves a warm-store run simulated nothing.
		rc, err := serve.NewClient(op.remote).Do(job, func(rec results.Record) error {
			return emit(experiments.Result{Record: rec})
		})
		if err != nil {
			fatal("%v", err)
		}
		counters = *rc
	} else {
		op.attachStore()
		pool := runner.New(o.Workers)
		stop := op.startProfiling()
		defer stop()
		if err := serve.Execute(job, pool, emit); err != nil {
			fatal("%v", err)
		}
		counters = serve.Counters(pool)
	}
	if op.format != "table" {
		if op.verbose {
			report.Runner = &counters
		}
		if err := report.Validate(); err != nil {
			fatal("internal: %v", err)
		}
		emitReport(report, op)
	}
	if op.verbose {
		fmt.Fprintln(os.Stderr, counters)
		if op.remote == "" {
			traces, uops, bytes := trace.RecordingTotals()
			fmt.Fprintf(os.Stderr, "recordings: %d traces, %d uops, %.1f MiB\n", traces, uops, float64(bytes)/(1<<20))
			if kb, ok := peakRSSKiB(); ok {
				fmt.Fprintf(os.Stderr, "peak RSS: %.1f MiB (VmHWM)\n", float64(kb)/1024)
			}
		}
	}
}

// peakRSSKiB returns the process's peak resident set in KiB, the VmHWM line
// of /proc/self/status, and false where that file cannot be read or holds
// no such line (any system but Linux).
func peakRSSKiB() (int64, bool) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb, err == nil
		}
	}
	return 0, false
}

// emitReport writes a validated report to stdout, or one file per record
// into -out DIR.
func emitReport(report results.Report, op *outputOptions) {
	if op.out == "" {
		var err error
		if op.format == "json" {
			err = results.WriteJSON(os.Stdout, report)
		} else {
			err = results.WriteReportCSV(os.Stdout, report)
		}
		if err != nil {
			fatal("emit: %v", err)
		}
		return
	}
	for _, rec := range report.Records {
		var b strings.Builder
		var err error
		if op.format == "json" {
			// Per-record files carry the full envelope so each file is
			// independently consumable.
			one := report
			one.Records = []results.Record{rec}
			err = results.WriteJSON(&b, one)
		} else {
			err = results.WriteCSV(&b, rec)
		}
		if err != nil {
			fatal("emit %s: %v", rec.ID, err)
		}
		writeOut(op.out, rec.ID+"."+op.format, []byte(b.String()))
	}
}

// writeOut writes one output file under dir, creating the directory, and
// exits through fatal on any failure.
func writeOut(dir, name string, data []byte) {
	path, err := writeResultFile(dir, name, data)
	if err != nil {
		fatal("out: %v", err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

// writeResultFile writes one result file under dir and reports write AND
// close errors. Result files are the tool's product; a close-time flush
// failure (full disk, remote filesystem) silently truncates them if only
// the write is checked.
func writeResultFile(dir, name string, data []byte) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("closing %s: %w", path, err)
	}
	return path, nil
}
