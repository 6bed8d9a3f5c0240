//go:build linux

package trace

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestReleasedRecordingsLeaveRSS builds, fills and releases enough
// unregistered recordings that leaking their chunks would add at least
// 64 MB of resident memory, and fails if VmRSS grows by more than a
// quarter of that: release must return a mapped chunk's pages to the
// operating system.
func TestReleasedRecordingsLeaveRSS(t *testing.T) {
	if !offHeap {
		t.Skip("recording chunks stay on the Go heap in this build")
	}
	const (
		leak      = 64 << 20
		recChunks = 16
		recBytes  = recChunks * ChunkUops * 22
	)
	p := Profile{Name: "rss", Seed: 5}
	fill := func() {
		r := newRecording(p)
		r.chunk(recChunks - 1)
		r.release()
	}
	fill() // the first recording settles the heap the generator needs
	before := vmRSS(t)
	for range leak/recBytes + 1 {
		fill()
	}
	grew := vmRSS(t) - before
	t.Logf("RSS grew by %d KiB over %d released recordings", grew>>10, leak/recBytes+1)
	if grew > leak/4 {
		t.Fatalf("RSS grew by %d KiB, want <= %d KiB", grew>>10, leak/4>>10)
	}
}

// vmRSS reads this process's resident set size in bytes from
// /proc/self/status.
func vmRSS(t *testing.T) int64 {
	t.Helper()
	f, err := os.Open("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				t.Fatalf("VmRSS line %q: %v", sc.Text(), err)
			}
			return kb << 10
		}
	}
	t.Fatalf("no VmRSS line in /proc/self/status (scan error: %v)", sc.Err())
	return 0
}
