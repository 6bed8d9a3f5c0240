package experiments

import (
	"strings"
	"testing"

	"loadsched/internal/memdep"
	"loadsched/internal/trace"
)

// tiny returns options small enough for unit tests yet large enough for the
// distributional assertions below.
func tiny() Options {
	return Options{Uops: 40_000, Warmup: 10_000, TracesPerGroup: 2}
}

func TestFig5ShapesAndRendering(t *testing.T) {
	rows := Fig5(tiny())
	if len(rows) != 6 {
		t.Fatalf("Fig5 rows = %d, want 6 groups (SpecFP excluded)", len(rows))
	}
	for _, r := range rows {
		c := r.Class
		if c.Loads == 0 {
			t.Fatalf("%s: no loads", r.Group)
		}
		if c.NotConflicting+c.Conflicting() != c.Loads {
			t.Fatalf("%s: classification does not partition", r.Group)
		}
		ac := c.FracOfLoads(c.AC())
		if ac > 0.30 {
			t.Errorf("%s: AC fraction %.2f implausibly high (paper ≈0.10)", r.Group, ac)
		}
		if r.Group == trace.GroupSpecFP95 {
			t.Error("SpecFP95 must be excluded from the disambiguation runs")
		}
	}
	tbl := Fig5Table(rows)
	if !strings.Contains(tbl.String(), "Figure 5") {
		t.Error("table missing title")
	}
	if len(tbl.Rows) != len(rows)+1 { // + average row
		t.Errorf("table rows = %d", len(tbl.Rows))
	}
}

func TestFig6WindowTrend(t *testing.T) {
	rows := Fig6(tiny())
	if len(rows) != len(Fig6Windows) {
		t.Fatalf("rows = %d", len(rows))
	}
	// The paper's claim: AC grows with window size, no-conflict shrinks.
	first, last := rows[0].Class, rows[len(rows)-1].Class
	if last.FracOfLoads(last.AC()) <= first.FracOfLoads(first.AC()) {
		t.Errorf("AC share should grow with window: %.3f -> %.3f",
			first.FracOfLoads(first.AC()), last.FracOfLoads(last.AC()))
	}
	if last.FracOfLoads(last.NotConflicting) >= first.FracOfLoads(first.NotConflicting) {
		t.Errorf("no-conflict share should shrink with window: %.3f -> %.3f",
			first.FracOfLoads(first.NotConflicting), last.FracOfLoads(last.NotConflicting))
	}
	_ = Fig6Table(rows)
}

func TestFig7SchemeOrdering(t *testing.T) {
	r := Fig7(tiny())
	if len(r.Traces) != 2 {
		t.Fatalf("traces = %v", r.Traces)
	}
	trad := r.Average(memdep.Traditional)
	if trad != 1.0 {
		t.Fatalf("traditional average = %v, want 1", trad)
	}
	if perf := r.Average(memdep.Perfect); perf <= 1.0 {
		t.Errorf("perfect disambiguation should speed up NT: %v", perf)
	}
	// The paper's ordering on the NT average, with no slack: Postponing <
	// Opportunistic < Inclusive ≤ Exclusive ≤ Perfect.
	for _, p := range []struct {
		lo, hi memdep.Scheme
		strict bool
	}{
		{memdep.Postponing, memdep.Opportunistic, true},
		{memdep.Opportunistic, memdep.Inclusive, true},
		{memdep.Inclusive, memdep.Exclusive, false},
		{memdep.Exclusive, memdep.Perfect, false},
	} {
		lo, hi := r.Average(p.lo), r.Average(p.hi)
		if p.strict && lo >= hi {
			t.Errorf("%v (%.4f) < %v (%.4f) does not hold", p.lo, lo, p.hi, hi)
		} else if lo > hi {
			t.Errorf("%v (%.4f) ≤ %v (%.4f) does not hold", p.lo, lo, p.hi, hi)
		}
	}
	tbl := Fig7Table(r)
	if len(tbl.Columns) != len(r.Traces)+2 {
		t.Errorf("table columns = %d", len(tbl.Columns))
	}
}

func TestFig8WidthTrend(t *testing.T) {
	o := Options{Uops: 25_000, Warmup: 8_000, TracesPerGroup: 1}
	cells := Fig8(o)
	want := len(Fig8Groups) * len(Fig8Machines) * len(fig8Schemes)
	if len(cells) != want {
		t.Fatalf("cells = %d want %d", len(cells), want)
	}
	// Perfect-speedup of the widest machine should be >= the narrowest one
	// on SysmarkNT (wider machines gain more, §4.1) — allow slack for the
	// small run.
	get := func(m MachineConfig) float64 {
		for _, c := range cells {
			if c.Group == trace.GroupSysmarkNT && c.Machine == m && c.Scheme == memdep.Perfect {
				return c.Speedup
			}
		}
		t.Fatal("cell missing")
		return 0
	}
	narrow, wide := get(Fig8Machines[0]), get(Fig8Machines[2])
	if wide < narrow*0.9 {
		t.Errorf("wide machine gains (%v) collapsed vs narrow (%v)", wide, narrow)
	}
	_ = Fig8Table(cells)
}

func TestFig9CHTShapes(t *testing.T) {
	rows := Fig9(tiny())
	if len(rows) != 20 {
		t.Fatalf("rows = %d want 20 (4 kinds × 5 sizes)", len(rows))
	}
	byKind := map[string][]Fig9Row{}
	for _, r := range rows {
		if r.Class.Loads == 0 {
			t.Fatalf("%s/%d saw no loads", r.Kind, r.Entries)
		}
		byKind[r.Kind] = append(byKind[r.Kind], r)
	}
	full := byKind["full"][4]     // 2K
	tagged := byKind["tagged"][4] // 2K
	comb := byKind["combined"][4] // 2K
	// Paper shape 1: the sticky tagged-only table has fewer AC-PNC but more
	// ANC-PC than the Full CHT.
	if tagged.Class.FracOfLoads(tagged.Class.ACPNC) > full.Class.FracOfLoads(full.Class.ACPNC) {
		t.Errorf("tagged AC-PNC (%.4f) should not exceed full (%.4f)",
			tagged.Class.FracOfLoads(tagged.Class.ACPNC), full.Class.FracOfLoads(full.Class.ACPNC))
	}
	if tagged.Class.FracOfLoads(tagged.Class.ANCPC) < full.Class.FracOfLoads(full.Class.ANCPC) {
		t.Errorf("tagged ANC-PC (%.4f) should exceed full (%.4f)",
			tagged.Class.FracOfLoads(tagged.Class.ANCPC), full.Class.FracOfLoads(full.Class.ANCPC))
	}
	// Paper shape 2: the combined table minimizes AC-PNC.
	if comb.Class.ACPNC > tagged.Class.ACPNC {
		t.Errorf("combined AC-PNC (%d) should not exceed tagged-only (%d)",
			comb.Class.ACPNC, tagged.Class.ACPNC)
	}
	// Paper shape 3: the tagless table improves (fewer mispredictions) with
	// size.
	tl := byKind["tagless"]
	smallBad := tl[0].Class.ANCPC + tl[0].Class.ACPNC
	bigBad := tl[len(tl)-1].Class.ANCPC + tl[len(tl)-1].Class.ACPNC
	if bigBad > smallBad {
		t.Errorf("tagless mispredictions grew with size: %d -> %d", smallBad, bigBad)
	}
	_ = Fig9Table(rows)
}

func TestFig10PredictorQuality(t *testing.T) {
	rows := Fig10(tiny())
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	var fp, others Fig10Row
	for _, r := range rows {
		if r.Local.Loads() == 0 {
			t.Fatalf("%s: no loads", r.Group)
		}
		switch r.Group {
		case trace.GroupSpecFP95:
			fp = r
		case "Others":
			others = r
		}
		// The chooser must not produce more false miss alarms than local
		// (its purpose, §2.2) — equality tolerated on tiny runs.
		if r.Chooser.AHPM > r.Local.AHPM+r.Local.AHPM/10+5 {
			t.Errorf("%s: chooser AH-PM (%d) above local (%d)", r.Group, r.Chooser.AHPM, r.Local.AHPM)
		}
	}
	// FP must be the most predictable group, Others the least (caught-miss
	// fraction ordering).
	caught := func(r Fig10Row) float64 {
		if r.Local.Misses() == 0 {
			return 0
		}
		return float64(r.Local.AMPM) / float64(r.Local.Misses())
	}
	if caught(fp) <= caught(others) {
		t.Errorf("FP caught fraction (%.2f) should exceed Others (%.2f)", caught(fp), caught(others))
	}
	_ = Fig10Table(rows)
}

func TestFig11HMPOrdering(t *testing.T) {
	o := Options{Uops: 40_000, Warmup: 10_000, TracesPerGroup: 2}
	cells := Fig11(o)
	if len(cells) != len(Fig11Groups)*len(Fig11Predictors) {
		t.Fatalf("cells = %d", len(cells))
	}
	get := func(g, p string) float64 {
		for _, c := range cells {
			if c.Group == g && c.Predictor == p {
				return c.Speedup
			}
		}
		t.Fatalf("cell %s/%s missing", g, p)
		return 0
	}
	for _, g := range Fig11Groups {
		perfect := get(g, "perfect")
		if perfect < 1.0 {
			t.Errorf("%s: perfect HMP slower than always-hit (%v)", g, perfect)
		}
		// Real predictors cannot beat the oracle (small tolerance for run
		// noise on tiny traces).
		for _, p := range []string{"local", "chooser", "local+timing", "chooser+timing"} {
			if v := get(g, p); v > perfect*1.02 {
				t.Errorf("%s: %s (%v) beats perfect (%v)", g, p, v, perfect)
			}
		}
		// Timing info must not hurt.
		if get(g, "local+timing") < get(g, "local")*0.99 {
			t.Errorf("%s: timing info hurt the local predictor", g)
		}
	}
	_ = Fig11Table(cells)
}

func TestFig12OperatingPoints(t *testing.T) {
	rows := Fig12(tiny())
	if len(rows) != len(Fig12Groups)*len(Fig12Predictors) {
		t.Fatalf("rows = %d", len(rows))
	}
	get := func(g, p string) Fig12Row {
		for _, r := range rows {
			if r.Group == g && r.Predictor == p {
				return r
			}
		}
		t.Fatalf("row %s/%s missing", g, p)
		return Fig12Row{}
	}
	for _, g := range Fig12Groups {
		a, b := get(g, "A"), get(g, "B")
		c, addr := get(g, "C"), get(g, "Addr")
		// Rates: C and Addr are the high-rate predictors.
		if c.Stats.Rate() <= a.Stats.Rate() {
			t.Errorf("%s: C rate (%.2f) should exceed A (%.2f)", g, c.Stats.Rate(), a.Stats.Rate())
		}
		if addr.Stats.Rate() <= a.Stats.Rate() {
			t.Errorf("%s: Addr rate should exceed A", g)
		}
		// Every predictor must be far more often right than wrong.
		for _, r := range []Fig12Row{a, b, c, addr} {
			if r.Stats.Accuracy() < 0.9 {
				t.Errorf("%s/%s accuracy %.2f < 0.9", g, r.Predictor, r.Stats.Accuracy())
			}
			// The metric must decline with penalty.
			if r.Metric(0) < r.Metric(10) {
				t.Errorf("%s/%s metric grows with penalty", g, r.Predictor)
			}
		}
		// Addr is the most accurate, so its curve is flattest.
		slope := func(r Fig12Row) float64 { return r.Metric(0) - r.Metric(10) }
		if slope(addr) > slope(c) {
			t.Errorf("%s: Addr slope (%.3f) steeper than C (%.3f)", g, slope(addr), slope(c))
		}
	}
	_ = Fig12Table(rows)
}

func TestOptionsHelpers(t *testing.T) {
	o := DefaultOptions()
	if o.Uops <= 0 || o.Warmup <= 0 {
		t.Fatal("bad defaults")
	}
	q := Quick()
	if q.Uops >= o.Uops {
		t.Fatal("Quick should be smaller than default")
	}
	g, _ := trace.GroupByName(trace.GroupSpecInt95)
	if n := len(Options{TracesPerGroup: 3}.traces(g)); n != 3 {
		t.Fatalf("traces cap = %d", n)
	}
	if n := len(Options{}.traces(g)); n != len(g.Traces) {
		t.Fatalf("uncapped traces = %d", n)
	}
}

func TestGroupTracesPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Options{}.groupTraces("NoSuchGroup")
}
