package main

import (
	"flag"
	"fmt"

	"loadsched/internal/trace"
	"loadsched/internal/uop"
)

// runTraceCmd implements `loadsched trace <record|info>`: the trace-file
// toolbox. `trace record` serializes a synthetic trace (v2 packed-chunk
// format by default, -v1 for the legacy flat format); `trace info`
// validates a file — structure, per-chunk CRCs, Seq monotonicity — and
// reports its shape and packing density without materializing it.
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
	v1 := fs.Bool("v1", false, "write the legacy flat v1 format")
	parseFlags(fs, args)
	if *out == "" {
		fatal("trace record: -o <file> is required")
	}
	p, ok := trace.TraceByName(*group, *traceName)
	if !ok {
		fatal("unknown trace %s/%s", *group, *traceName)
	}
	write, version := trace.WriteTraceFile, 2
	if *v1 {
		write, version = trace.WriteTraceFileV1, 1
	}
	if err := write(*out, p, *n); err != nil {
		fatal("trace record: %v", err)
	}
	fmt.Printf("recorded %d uops of %s/%s to %s (format v%d)\n", *n, *group, *traceName, *out, version)
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
	if fi.Version >= 2 {
		fmt.Printf("chunks:      %d (up to %d uops each, CRC-32C checked)\n", fi.Chunks, trace.ChunkUops)
	}
	fmt.Printf("payload:     %d bytes (%.2f bytes/uop)\n", fi.PayloadBytes, fi.BytesPerUop())
	fmt.Printf("file size:   %d bytes\n", fi.FileBytes)
	fmt.Printf("side-car:    %d bytes (%.2f bytes/uop), built in %.2f ms\n",
		fi.SidecarBytes, fi.SidecarBytesPerUop(), float64(fi.SidecarBuildNanos)/1e6)
	fmt.Printf("kinds:")
	for k, n := range fi.KindCounts {
		if n == 0 {
			continue
		}
		fmt.Printf("  %s %d (%.1f%%)", uop.Kind(k), n, 100*float64(n)/float64(fi.Uops))
	}
	fmt.Println()
}
