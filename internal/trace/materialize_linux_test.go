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
// operating system. The loop is sized from the pages a filled recording
// really maps, so it keeps its 64 MB as the chunk format changes.
func TestReleasedRecordingsLeaveRSS(t *testing.T) {
	if !offHeap {
		t.Skip("recording chunks stay on the Go heap in this build")
	}
	const (
		leak      = 64 << 20
		recChunks = 16
	)
	page := os.Getpagesize()
	p := Profile{Name: "rss", Seed: 5}
	// fill records recChunks chunks, releases them and returns the bytes
	// their mappings held, whole pages each.
	fill := func() int {
		r := newRecording(p)
		r.chunk(recChunks - 1)
		mapped := 0
		for i := range recChunks {
			mapped += (len(r.chunks[i].Load().mem) + page - 1) / page * page
		}
		r.release()
		return mapped
	}
	recBytes := fill() // the first recording also settles the heap the generator needs
	if recBytes == 0 {
		t.Fatal("a filled recording maps no pages")
	}
	fills := leak/recBytes + 1
	before := vmRSS(t)
	for range fills {
		fill()
	}
	grew := vmRSS(t) - before
	t.Logf("RSS grew by %d KiB over %d released recordings of %d KiB each", grew>>10, fills, recBytes>>10)
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
