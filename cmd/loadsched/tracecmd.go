package main

import (
	"flag"
	"fmt"

	"loadsched/internal/ooo"
	"loadsched/internal/trace"
	"loadsched/internal/uop"
)

// runTraceCmd implements `loadsched trace <record|info>`: the trace-file
// toolbox. `trace record` serializes a synthetic trace in the v2
// packed-chunk format; `trace info` validates a file of either version —
// structure, per-chunk CRCs, Seq monotonicity — and reports its shape and
// packing density without materializing it.
func runTraceCmd(args []string) {
	if len(args) < 1 {
		fatal("trace: missing subcommand (record | info)")
	}
	switch args[0] {
	case "record":
		runTraceRecord(args[1:])
	case "info":
		runTraceInfo(args[1:])
	default:
		fatal("trace: unknown subcommand %q (want record | info)", args[0])
	}
}

func runTraceRecord(args []string) {
	fs := flag.NewFlagSet("trace record", flag.ExitOnError)
	group := fs.String("group", trace.GroupSysmarkNT, "trace group")
	traceName := fs.String("trace", "ex", "trace name")
	n := fs.Int("n", 300_000, "uops to record")
	out := fs.String("o", "", "output file (required)")
	parseFlags(fs, args)
	if *out == "" {
		fatal("trace record: -o <file> is required")
	}
	p, ok := trace.TraceByName(*group, *traceName)
	if !ok {
		fatal("unknown trace %s/%s", *group, *traceName)
	}
	if err := trace.WriteTraceFile(*out, p, *n); err != nil {
		fatal("trace record: %v", err)
	}
	fmt.Printf("recorded %d uops of %s/%s to %s (format v2)\n", *n, *group, *traceName, *out)
}

func runTraceInfo(args []string) {
	fs := flag.NewFlagSet("trace info", flag.ExitOnError)
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fatal("trace info: exactly one file argument is required")
	}
	path := fs.Arg(0)
	fi, err := trace.InspectTraceFile(path)
	if err != nil {
		fatal("trace info: %v", err)
	}
	fmt.Printf("file:        %s\n", path)
	fmt.Printf("version:     %d\n", fi.Version)
	fmt.Printf("uops:        %d\n", fi.Uops)
	fmt.Printf("pass:        %d uops\n", fi.Pass)
	if fi.Version >= 2 {
		fmt.Printf("chunks:      %d (up to %d uops each, CRC-32C checked)\n", fi.Chunks, trace.ChunkUops)
	}
	fmt.Printf("payload:     %d bytes (%.2f bytes/uop)\n", fi.PayloadBytes, fi.BytesPerUop())
	fmt.Printf("file size:   %d bytes\n", fi.FileBytes)
	fmt.Printf("kinds:")
	for k, n := range fi.KindCounts {
		if n == 0 {
			continue
		}
		fmt.Printf("  %s %d (%.1f%%)", uop.Kind(k), n, 100*float64(n)/float64(fi.Uops))
	}
	fmt.Println()
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
