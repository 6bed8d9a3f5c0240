package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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
