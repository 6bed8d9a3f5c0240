package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets a test run the command itself: with LOADSCHED_TEST_MAIN=1
// in its environment, the test binary is loadsched.
func TestMain(m *testing.M) {
	if os.Getenv("LOADSCHED_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestStrayArgumentsRejected: flag parsing stops at the first positional
// argument, so `figure 5 junk -quick` used to run the full-size figure and
// exit 0. Every subcommand must instead exit 2 before doing any work, with
// a usage error naming each leftover argument.
func TestStrayArgumentsRejected(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.lsut")
	for _, tc := range []struct {
		name  string
		args  []string
		stray []string
	}{
		{"figure", []string{"figure", "5", "junk", "-quick"}, []string{"junk", "-quick"}},
		{"all", []string{"all", "-quick", "junk"}, []string{"junk"}},
		{"run", []string{"run", "junk"}, []string{"junk"}},
		{"sweep", []string{"sweep", "window", "junk", "-quick"}, []string{"junk", "-quick"}},
		{"cpistack", []string{"cpistack", "-quick", "junk"}, []string{"junk"}},
		{"tournament", []string{"tournament", "junk", "-quick"}, []string{"junk", "-quick"}},
		{"serve", []string{"serve", "junk"}, []string{"junk"}},
		{"trace record", []string{"trace", "record", "-o", out, "junk"}, []string{"junk"}},
		{"replay", []string{"replay", "-f", out, "junk", "-v"}, []string{"junk", "-v"}},
		{"traces", []string{"traces", "junk"}, []string{"junk"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), "LOADSCHED_TEST_MAIN=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("exit: %v, want status 2; stderr:\n%s", err, stderr.String())
			}
			want := `unexpected arguments "` + strings.Join(tc.stray, `" "`) + `"`
			if !strings.Contains(stderr.String(), want) {
				t.Errorf("stderr does not contain %s:\n%s", want, stderr.String())
			}
		})
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a rejected record wrote %s (stat: %v)", out, err)
	}
}

// TestRunRejectsJobOnlyFlags: a single run reads neither -traces nor -j,
// so it does not take them; naming one is a usage error (exit 2) instead
// of a flag silently dropped.
func TestRunRejectsJobOnlyFlags(t *testing.T) {
	for _, flag := range []string{"-traces", "-j"} {
		t.Run(flag, func(t *testing.T) {
			stdout, stderr, code := runCLI(t, "run", flag, "3", "-uops", "1000", "-warmup", "100")
			if code != 2 || stdout != "" || !strings.Contains(stderr, "flag provided but not defined: "+flag) {
				t.Fatalf("exit %d, stdout %q, stderr:\n%s\nwant a usage error naming %s", code, stdout, stderr, flag)
			}
		})
	}
}

// TestRecordCommandRemoved: the top-level `record` was a subset of `trace
// record` and is gone; it is now an unknown command.
func TestRecordCommandRemoved(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.lsut")
	stdout, stderr, code := runCLI(t, "record", "-o", out, "-n", "100")
	if code != 1 || stdout != "" || !strings.Contains(stderr, `unknown command "record"`) {
		t.Fatalf("record: exit %d, stdout %q, stderr %q; want exit 1 naming the unknown command", code, stdout, stderr)
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("record wrote %s (stat: %v)", out, err)
	}
}

// runCLI runs loadsched with args in a child process and returns its
// stdout, stderr and exit status.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "LOADSCHED_TEST_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatalf("running loadsched %v: %v", args, err)
	}
	return out.String(), errOut.String(), code
}

func TestWriteResultFile(t *testing.T) {
	dir := t.TempDir()

	t.Run("writes and reports the path", func(t *testing.T) {
		path, err := writeResultFile(filepath.Join(dir, "out"), "fig7.json", []byte("{}"))
		if err != nil {
			t.Fatalf("writeResultFile: %v", err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != "{}" {
			t.Fatalf("read back %q, err %v", got, err)
		}
	})

	t.Run("directory creation failure surfaces", func(t *testing.T) {
		// A plain file where the output directory should go: MkdirAll fails.
		blocker := filepath.Join(dir, "blocker")
		if err := os.WriteFile(blocker, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := writeResultFile(blocker, "fig7.json", []byte("{}")); err == nil {
			t.Fatal("writing under a file path should fail")
		}
	})

	t.Run("create failure surfaces", func(t *testing.T) {
		// The result "file" name collides with an existing subdirectory:
		// os.Create fails, and the error must reach the caller rather than
		// leaving a silently-missing result.
		out := filepath.Join(dir, "out2")
		if err := os.MkdirAll(filepath.Join(out, "fig7.json"), 0o755); err != nil {
			t.Fatal(err)
		}
		if _, err := writeResultFile(out, "fig7.json", []byte("{}")); err == nil {
			t.Fatal("creating over a directory should fail")
		}
	})
}

// TestRunConfigRejectsBadFlags pins the machine flags of `run` and `replay`
// to an error instead of a NewEngine or Run panic.
func TestRunConfigRejectsBadFlags(t *testing.T) {
	if _, err := runConfig("exclusive", "local", 32, 1000, 5000); err != nil {
		t.Fatalf("baseline run flags rejected: %v", err)
	}
	for _, tc := range []struct {
		name                 string
		scheme, hmp          string
		window, warmup, uops int
		want                 string
	}{
		{"zero window", "traditional", "none", 0, 0, 1000, "non-positive window"},
		{"window beyond pool", "traditional", "none", 200, 0, 1000, "exceeds rename pool"},
		{"zero uops", "traditional", "none", 32, 0, 0, "-uops must be positive"},
		{"negative uops", "traditional", "none", 32, 0, -1, "-uops must be positive"},
		{"unknown scheme", "fifo", "none", 32, 0, 1000, "unknown scheme"},
		{"unknown hmp", "traditional", "oracle", 32, 0, 1000, "unknown hmp"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := runConfig(tc.scheme, tc.hmp, tc.window, tc.warmup, tc.uops)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
	// replay shares machineConfig: its -window is checked the same way.
	if _, err := machineConfig("traditional", 500, 40000); err == nil || !strings.Contains(err.Error(), "exceeds rename pool") {
		t.Fatalf("replay -window 500: err = %v, want the rename-pool bound", err)
	}
}
