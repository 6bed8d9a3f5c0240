package experiments

import (
	"fmt"

	"loadsched/internal/memdep"
	"loadsched/internal/ooo"
	"loadsched/internal/runner"
	"loadsched/internal/stats"
	"loadsched/internal/trace"
)

// Fig9Row is one CHT configuration's behavior on the SysmarkNT collision
// stream: the four predicted/actual buckets as fractions of conflicting
// loads (the figure's stacked bars) and of all loads (the values quoted in
// the text, e.g. "2K Full-CHT: 3.4% ANC-PC and 0.9% AC-PNC").
type Fig9Row struct {
	// Kind is full / tagless / tagged / combined.
	Kind string
	// Entries is the table size swept.
	Entries int
	// Class tallies the four buckets; NotConflicting loads are excluded
	// from the figure but tracked for the of-all-loads percentages.
	Class memdep.Classification
}

// fig9Block is how many events one block of a captured collision stream
// holds (64 KiB). Blocks of a fixed size allocate each event once, where
// one slice grown by append would copy the stream several times over.
const fig9Block = 4096

// fig9Sweep defines the paper's size sweeps per organization.
type fig9Sweep struct {
	kind    string
	entries []int
	make    func(entries int) memdep.Predictor
}

func fig9Sweeps() []fig9Sweep {
	return []fig9Sweep{
		{"full", []int{128, 256, 512, 1024, 2048},
			func(n int) memdep.Predictor { return memdep.NewFullCHT(n, 4, 2, true) }},
		{"tagless", []int{2048, 4096, 8192, 16384, 32768},
			func(n int) memdep.Predictor { return memdep.NewTaglessCHT(n, 1, false) }},
		{"tagged", []int{128, 256, 512, 1024, 2048},
			func(n int) memdep.Predictor { return memdep.NewImplicitCHT(n, 4, false) }},
		{"combined", []int{128, 256, 512, 1024, 2048},
			func(n int) memdep.Predictor { return memdep.NewCombinedCHT(n, 4, 4096, false) }},
	}
}

// Fig9 reproduces Figure 9 (CHT Performance): each table organization and
// size is fed the same collision stream — gathered from one simulator pass
// per SysmarkNT trace — and classified into AC-PC / AC-PNC / ANC-PC /
// ANC-PNC. The paper's shape: the Full CHT minimizes ANC-PC (it can unlearn);
// the sticky tagged-only table minimizes AC-PNC at the cost of ANC-PC; the
// combined table pushes AC-PNC lowest of all; the tagless table improves
// steadily with size as aliasing fades.
//
// The simulator passes that gather the collision streams are independent
// per trace and execute concurrently; the predictors, whose state carries
// across trace boundaries, then classify the captured streams serially in
// trace order — exactly the event sequence the serial pass produced.
func Fig9(o Options) []Fig9Row {
	type slot struct {
		pred memdep.Predictor
		row  *Fig9Row
	}
	var slots []slot
	var rows []Fig9Row
	for _, sw := range fig9Sweeps() {
		for _, n := range sw.entries {
			rows = append(rows, Fig9Row{Kind: sw.kind, Entries: n})
		}
	}
	i := 0
	for _, sw := range fig9Sweeps() {
		for _, n := range sw.entries {
			slots = append(slots, slot{pred: sw.make(n), row: &rows[i]})
			i++
		}
	}

	traces := o.groupTraces(trace.GroupSysmarkNT)
	streams := runner.Map(o.pool(), len(traces), func(ti int) [][]ooo.LoadEvent {
		var blocks [][]ooo.LoadEvent
		cfg := baseConfig(memdep.Traditional)
		cfg.WarmupUops = o.EffectiveWarmup()
		cfg.OnLoadRetire = func(ev ooo.LoadEvent) {
			n := len(blocks)
			if n == 0 || len(blocks[n-1]) == fig9Block {
				blocks = append(blocks, make([]ooo.LoadEvent, 0, fig9Block))
				n++
			}
			blocks[n-1] = append(blocks[n-1], ev)
		}
		ooo.NewEngine(cfg, trace.Replay(traces[ti])).Run(o.Uops)
		return blocks
	})
	for _, blocks := range streams {
		for _, evs := range blocks {
			for _, ev := range evs {
				ip := uint64(ev.IP)
				for _, s := range slots {
					pred := s.pred.Lookup(ip).Colliding
					s.row.Class.Loads++
					switch {
					case !ev.Conflicting:
						s.row.Class.NotConflicting++
					case ev.Colliding && pred:
						s.row.Class.ACPC++
					case ev.Colliding && !pred:
						s.row.Class.ACPNC++
					case !ev.Colliding && pred:
						s.row.Class.ANCPC++
					default:
						s.row.Class.ANCPNC++
					}
					s.pred.Record(ip, ev.Colliding, int(ev.Distance))
				}
			}
		}
	}
	return rows
}

// Fig9Table renders Figure 9 (fractions of conflicting loads, as the
// figure's y-axis) plus the of-all-loads numbers the text quotes.
func Fig9Table(rows []Fig9Row) stats.Table {
	t := stats.Table{
		Title: "Figure 9 — CHT Performance (SysmarkNT)",
		Note:  "bucket shares of conflicting loads; (all) columns are % of all loads as quoted in §4.1",
		Columns: []string{"CHT", "entries", "AC-PC", "AC-PNC", "ANC-PC", "ANC-PNC",
			"ANC-PC(all)", "AC-PNC(all)"},
	}
	for _, r := range rows {
		c := r.Class
		t.AddRow(r.Kind, fmt.Sprintf("%d", r.Entries),
			stats.Pct(c.FracOfConflicting(c.ACPC)),
			stats.Pct(c.FracOfConflicting(c.ACPNC)),
			stats.Pct(c.FracOfConflicting(c.ANCPC)),
			stats.Pct(c.FracOfConflicting(c.ANCPNC)),
			stats.Pct2(c.FracOfLoads(c.ANCPC)),
			stats.Pct2(c.FracOfLoads(c.ACPNC)))
	}
	return t
}
