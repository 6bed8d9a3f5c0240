package experiments

import (
	"bytes"
	"testing"

	"loadsched/internal/results"
	"loadsched/internal/runner"
	"loadsched/internal/trace"
)

// parallelOptions builds the quick preset on an isolated pool, so the test
// runs do not share results with each other (or anything else in the
// process) through the shared cache.
func parallelOptions(workers int) Options {
	o := Quick()
	o.Uops, o.Warmup = 15_000, 4_000
	o.TracesPerGroup = 1
	o.Pool = runner.NewIsolated(workers, runner.NewCache())
	return o
}

// TestFiguresDeterministicAcrossWorkers runs every experiment serially
// and on a wide pool and requires byte-identical text (table and chart)
// and JSON — the property that makes -j safe to default on and lets shape
// checks diff emitted records across runs. The text and the record of a
// side come from one run, as the CLI renders them.
func TestFiguresDeterministicAcrossWorkers(t *testing.T) {
	render := func(t *testing.T, id string, o Options) (string, []byte) {
		t.Helper()
		res, err := Run(id, trace.GroupSysmarkNT, o)
		if err != nil {
			t.Fatalf("Run(%q): %v", id, err)
		}
		if err := res.Record.Validate(); err != nil {
			t.Fatalf("record %q invalid: %v", id, err)
		}
		tbl := res.Table()
		text := tbl.String()
		if res.Chart != nil {
			text += res.Chart().String()
		}
		var buf bytes.Buffer
		if err := results.WriteJSON(&buf, results.NewReport("test", res.Record.Options, []results.Record{res.Record})); err != nil {
			t.Fatal(err)
		}
		return text, buf.Bytes()
	}
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			serial, j1 := render(t, id, parallelOptions(1))
			wide, j8 := render(t, id, parallelOptions(8))
			if serial != wide {
				t.Fatalf("-j1 and -j8 text differs:\n--- j1 ---\n%s\n--- j8 ---\n%s", serial, wide)
			}
			if !bytes.Equal(j1, j8) {
				t.Fatalf("-j1 and -j8 JSON records differ:\n--- j1 ---\n%s\n--- j8 ---\n%s", j1, j8)
			}
		})
	}
}

// TestMemoizationSharesBaseline runs Figure 5 then Figure 7 on one pool and
// checks the cache grew by less than the two figures' combined job count:
// the Traditional baseline submitted by both figures is keyed identically
// and simulated once.
func TestMemoizationSharesBaseline(t *testing.T) {
	cache := runner.NewCache()
	o := parallelOptions(4)
	o.Pool = runner.NewIsolated(4, cache)
	Fig5(o)
	afterFig5 := cache.Len()
	if afterFig5 == 0 {
		t.Fatal("Fig5 populated no cache entries")
	}
	Fig7(o)
	afterFig7 := cache.Len()
	// Fig7 adds one entry per (non-Traditional scheme, trace); its
	// Traditional jobs must all be cache hits from Fig5.
	tracesNT := len(o.groupTraces("SysmarkNT"))
	wantNew := 5 * tracesNT // Opportunistic..Perfect
	if got := afterFig7 - afterFig5; got != wantNew {
		t.Fatalf("Fig7 added %d cache entries, want %d (Traditional baseline must be shared)",
			got, wantNew)
	}
}

// TestEffectiveWarmup pins the sentinel semantics: zero stays zero at this
// layer (defaults are the caller's business), negatives clamp to zero.
func TestEffectiveWarmup(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{40_000, 40_000}, {0, 0}, {NoWarmup, 0}, {-5, 0},
	} {
		if got := (Options{Warmup: tc.in}).EffectiveWarmup(); got != tc.want {
			t.Errorf("EffectiveWarmup(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}
