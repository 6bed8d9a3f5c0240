package main

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"loadsched/internal/runner"
	"loadsched/internal/serve"
	"loadsched/internal/trace"
	"loadsched/internal/uop"
)

// withTiny appends the job size these tests run at, small enough that a
// job command takes well under a second.
func withTiny(args ...string) []string {
	return append(args, "-uops", "3000", "-warmup", "500", "-traces", "1")
}

// TestTableGolden pins the text every job command prints in table format,
// charts included, byte for byte. The golden was captured with
//
//	go build -o /tmp/loadsched ./cmd/loadsched && F='-uops 3000 -warmup 500 -traces 1' &&
//	{ for n in 5 6 7 8 9 10 11 12; do /tmp/loadsched figure $n -chart $F; done;
//	  /tmp/loadsched cpistack $F; /tmp/loadsched tournament $F;
//	  for k in window penalty chtsize bankpolicies; do /tmp/loadsched sweep $k $F; done; } \
//	  > cmd/loadsched/testdata/golden_tables.txt
//
// The JSON records have their own goldens (testdata/golden_*.json at the
// repository root); this one guards the path from rows to text: tables,
// charts and the blank line that follows each figure.
func TestTableGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 14 job commands; skipped under -short")
	}
	want, err := os.ReadFile("testdata/golden_tables.txt")
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	var invocations [][]string
	for _, n := range []string{"5", "6", "7", "8", "9", "10", "11", "12"} {
		invocations = append(invocations, withTiny("figure", n, "-chart"))
	}
	invocations = append(invocations, withTiny("cpistack"), withTiny("tournament"))
	for _, k := range []string{"window", "penalty", "chtsize", "bankpolicies"} {
		invocations = append(invocations, withTiny("sweep", k))
	}
	var got strings.Builder
	for _, args := range invocations {
		stdout, stderr, code := runCLI(t, args...)
		if code != 0 {
			t.Fatalf("loadsched %v: exit %d\n%s", args, code, stderr)
		}
		got.WriteString(stdout)
	}
	if got.String() != string(want) {
		t.Fatalf("table output diverges from the golden\ngot %d bytes, want %d bytes\n%s",
			got.Len(), len(want), firstLineDiff(got.String(), string(want)))
	}
}

// firstLineDiff reports the first line where got and want differ.
func firstLineDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("one output is a prefix of the other (%d vs %d lines)", len(g), len(w))
}

// TestRemoteMatchesLocal: a job run through -remote against a live serve
// must print exactly what the same job prints locally, in both record
// formats, for each kind of job command.
func TestRemoteMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 16 job commands; skipped under -short")
	}
	srv := serve.New(serve.Config{Workers: 2, Cache: runner.NewCache()})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	for _, job := range [][]string{
		{"figure", "7"},
		{"cpistack"},
		{"tournament"},
		{"sweep", "chtsize", "-group", "TPC"},
	} {
		for _, format := range []string{"json", "csv"} {
			args := withTiny(append(job, "-format", format)...)
			t.Run(strings.Join(append(job, format), " "), func(t *testing.T) {
				local, stderr, code := runCLI(t, args...)
				if code != 0 {
					t.Fatalf("local: exit %d\n%s", code, stderr)
				}
				remote, stderr, code := runCLI(t, append(args, "-remote", hs.URL)...)
				if code != 0 {
					t.Fatalf("remote: exit %d\n%s", code, stderr)
				}
				if local == "" || remote != local {
					t.Fatalf("remote output differs from local\n--- local ---\n%s\n--- remote ---\n%s", local, remote)
				}
			})
		}
	}
}

// TestVerbosePrintsPeakRSS: with -v a local job prints what the process's
// trace recordings hold and its peak resident set, read from Linux's
// /proc/self/status, each on its own line right after the runner line; a
// -remote job, whose simulating process is the server, prints the runner
// line alone.
func TestVerbosePrintsPeakRSS(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("VmHWM is read from Linux's /proc/self/status")
	}
	recs := regexp.MustCompile(`^recordings: ([0-9]+) traces, ([0-9]+) uops, [0-9]+\.[0-9] MiB$`)
	peak := regexp.MustCompile(`^peak RSS: [0-9]+\.[0-9] MiB \(VmHWM\)$`)
	_, stderr, code := runCLI(t, withTiny("figure", "5", "-v")...)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	lines := strings.Split(strings.TrimSuffix(stderr, "\n"), "\n")
	n := len(lines)
	if n < 3 || !strings.HasPrefix(lines[n-3], "runner: ") || !recs.MatchString(lines[n-2]) || !peak.MatchString(lines[n-1]) {
		t.Fatalf("stderr does not end with the runner line, a recordings line and a peak RSS line:\n%s", stderr)
	}
	// Figure 5 replays at least one trace, so the process holds at least
	// one recording of at least one chunk.
	if m := recs.FindStringSubmatch(lines[n-2]); m[1] == "0" || m[2] == "0" {
		t.Fatalf("recordings line reports nothing recorded: %s", lines[n-2])
	}

	srv := serve.New(serve.Config{Workers: 1, Cache: runner.NewCache()})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	_, stderr, code = runCLI(t, withTiny("figure", "5", "-v", "-format", "json", "-remote", hs.URL)...)
	if code != 0 {
		t.Fatalf("remote: exit %d\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "runner: ") || strings.Contains(stderr, "peak RSS") || strings.Contains(stderr, "recordings: ") {
		t.Fatalf("remote stderr wants the runner line and no recordings or peak RSS line:\n%s", stderr)
	}
}

// TestJobCommandsRejectNonPositiveUops: a job command given -uops 0 or a
// negative count, a negative -traces (which would mean every trace) or a
// -group on the bank-policy sweep (which runs on SpecInt95 whatever it is
// given) must fail before simulating, with one line naming the option and
// nothing on stdout: no table of zeros, no goroutine dump.
func TestJobCommandsRejectNonPositiveUops(t *testing.T) {
	type reject struct {
		args   []string
		option string // the option the error line must name
	}
	var cases []reject
	for _, job := range [][]string{
		{"figure", "5"},
		{"all"},
		{"sweep", "window"},
		{"cpistack"},
		{"tournament"},
	} {
		for _, uops := range []string{"0", "-5"} {
			args := append(append([]string{}, job...), "-uops", uops, "-warmup", "0", "-traces", "1")
			cases = append(cases, reject{args, "uops"})
		}
	}
	cases = append(cases,
		reject{[]string{"figure", "5", "-traces", "-3", "-uops", "1000", "-warmup", "0"}, "traces"},
		reject{[]string{"all", "-traces", "-1", "-uops", "1000", "-warmup", "0"}, "traces"},
		reject{[]string{"sweep", "window", "-traces", "-2", "-uops", "1000", "-warmup", "0"}, "traces"},
		reject{[]string{"sweep", "bankpolicies", "-group", "TPC", "-uops", "1000", "-warmup", "0"}, "group"},
		reject{[]string{"sweep", "bankpolicies", "-group", "SpecInt95", "-uops", "1000", "-warmup", "0"}, "group"},
	)
	for _, tc := range cases {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			stdout, stderr, code := runCLI(t, tc.args...)
			lines := strings.Split(strings.TrimSuffix(stderr, "\n"), "\n")
			if code != 1 || stdout != "" || len(lines) != 1 ||
				!strings.HasPrefix(lines[0], "loadsched: ") || !strings.Contains(lines[0], tc.option) {
				t.Fatalf("exit %d, stdout %q, stderr:\n%s\nwant exit 1, no stdout and one loadsched: line naming %s",
					code, stdout, stderr, tc.option)
			}
		})
	}
}

// TestRemoteRejectsLocalOnlyFlags: -store, the profiles and -j act only on
// a local run, so a -remote run must refuse them as a usage error, before
// anything is created or sent, rather than drop them.
func TestRemoteRejectsLocalOnlyFlags(t *testing.T) {
	var requests atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, "no request expected", http.StatusTeapot)
	}))
	defer hs.Close()
	dir := t.TempDir()
	paths := map[string]string{
		"-store":      filepath.Join(dir, "store"),
		"-cpuprofile": filepath.Join(dir, "cpu.pprof"),
		"-memprofile": filepath.Join(dir, "mem.pprof"),
		"-trace":      filepath.Join(dir, "exec.trace"),
	}
	for _, tc := range []struct {
		args  []string
		names []string
	}{
		{[]string{"sweep", "chtsize", "-store", paths["-store"]}, []string{"-store"}},
		{[]string{"figure", "7", "-cpuprofile", paths["-cpuprofile"]}, []string{"-cpuprofile"}},
		{[]string{"all", "-memprofile", paths["-memprofile"]}, []string{"-memprofile"}},
		{[]string{"cpistack", "-trace", paths["-trace"]}, []string{"-trace"}},
		{[]string{"tournament", "-j", "2"}, []string{"-j"}},
		{[]string{"sweep", "chtsize", "-store", paths["-store"], "-j", "1", "-cpuprofile", paths["-cpuprofile"]},
			[]string{"-cpuprofile", "-j", "-store"}},
	} {
		args := withTiny(append(tc.args, "-format", "json", "-remote", hs.URL)...)
		t.Run(strings.Join(tc.names, " "), func(t *testing.T) {
			stdout, stderr, code := runCLI(t, args...)
			if code != 2 || stdout != "" {
				t.Fatalf("exit %d, stdout %q, stderr:\n%s\nwant a usage error (exit 2)", code, stdout, stderr)
			}
			if want := "cannot take " + strings.Join(tc.names, " "); !strings.Contains(stderr, want) {
				t.Fatalf("stderr does not contain %q:\n%s", want, stderr)
			}
		})
	}
	if n := requests.Load(); n != 0 {
		t.Fatalf("the server received %d requests, want none", n)
	}
	for flag, path := range paths {
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: a rejected run created %s (stat: %v)", flag, path, err)
		}
	}
}

// TestTraceFilesOfBothVersionsReplay: `trace info` and `replay` read a v1
// and a v2 file of the same 200 uops, and replay simulates them alike. The
// files are fixtures because nothing in the program writes v1 any more;
// both were written by an earlier `trace record`:
//
//	loadsched trace record -v1 -n 200 -o cmd/loadsched/testdata/ex200-v1.lsut
//	loadsched trace record -n 200 -o cmd/loadsched/testdata/ex200-v2.lsut
func TestTraceFilesOfBothVersionsReplay(t *testing.T) {
	var stats []string
	for _, v := range []string{"1", "2"} {
		path := filepath.Join("testdata", "ex200-v"+v+".lsut")
		info, stderr, code := runCLI(t, "trace", "info", path)
		if code != 0 {
			t.Fatalf("trace info %s: exit %d\n%s", path, code, stderr)
		}
		for _, want := range []string{"version:     " + v + "\n", "uops:        200\n", "pass:        200 uops\n"} {
			if !strings.Contains(info, want) {
				t.Errorf("trace info %s lacks %q:\n%s", path, want, info)
			}
		}
		out, stderr, code := runCLI(t, "replay", "-f", path, "-warmup", "50", "-uops", "1000")
		if code != 0 {
			t.Fatalf("replay %s: exit %d\n%s", path, code, stderr)
		}
		header, body, _ := strings.Cut(out, "\n")
		if !strings.HasPrefix(header, path+"  scheme=Traditional") || !strings.Contains(body, "uops=1002") {
			t.Fatalf("replay %s printed:\n%s", path, out)
		}
		stats = append(stats, body)
	}
	if stats[0] != stats[1] {
		t.Fatalf("v1 and v2 replays differ:\n--- v1 ---\n%s--- v2 ---\n%s", stats[0], stats[1])
	}
}

// TestTraceInfoPrintsPass: `trace info` prints how many uops one replay
// pass holds, and no side-car line. A file that ends on a whole store
// replays all of its uops; one cut between an STA and its STD replays up
// to that STA, one uop fewer.
func TestTraceInfoPrintsPass(t *testing.T) {
	p, _ := trace.TraceByName(trace.GroupSysmarkNT, "ex")
	us := trace.Collect(p, 2000)
	cut := -1
	for i := len(us) - 1; i > 0; i-- {
		if us[i].Kind() == uop.STA {
			cut = i
			break
		}
	}
	if cut < 0 {
		t.Fatal("no STA in the first 2000 uops of SysmarkNT/ex")
	}
	dir := t.TempDir()
	for _, tc := range []struct{ n, pass int }{{cut + 2, cut + 2}, {cut + 1, cut}} {
		path := filepath.Join(dir, fmt.Sprintf("ex-%d.lsut", tc.n))
		if _, stderr, code := runCLI(t, "trace", "record", "-n", fmt.Sprint(tc.n), "-o", path); code != 0 {
			t.Fatalf("trace record -n %d: exit %d\n%s", tc.n, code, stderr)
		}
		info, stderr, code := runCLI(t, "trace", "info", path)
		if code != 0 {
			t.Fatalf("trace info %s: exit %d\n%s", path, code, stderr)
		}
		if want := fmt.Sprintf("pass:        %d uops\n", tc.pass); !strings.Contains(info, want) || strings.Contains(info, "side-car") {
			t.Errorf("trace info of %d uops wants %q and no side-car line:\n%s", tc.n, want, info)
		}
	}
}
