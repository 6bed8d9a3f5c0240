package experiments

import (
	"fmt"

	"loadsched/internal/hitmiss"
	"loadsched/internal/memdep"
	"loadsched/internal/results"
	"loadsched/internal/stats"
)

// Record builders: every figure driver's structured counterpart to its
// FigNTable renderer. Each builder derives a versioned results.Record from
// the same rows the table is assembled from, so the machine-readable and
// human-readable views of a run can never disagree. Records carry only
// values that are pure functions of the Options (never worker counts or
// wall times), keeping emitted JSON/CSV byte-identical across -j settings.

// FigureIDs lists the figure record IDs in paper order.
var FigureIDs = []string{"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12"}

// recordOptions echoes the deterministic subset of the options into a
// record envelope (Workers deliberately excluded).
func recordOptions(o Options) results.Options {
	return results.Options{Uops: o.Uops, Warmup: o.Warmup, TracesPerGroup: o.TracesPerGroup}
}

// classificationRow flattens one Classification tally under a row key.
func classificationRow(key string, c memdep.Classification) results.ClassificationRow {
	return results.ClassificationRow{
		Key: key, Loads: c.Loads,
		ACPC: c.ACPC, ACPNC: c.ACPNC, ANCPC: c.ANCPC, ANCPNC: c.ANCPNC,
		NotConflicting: c.NotConflicting,
		FracAC:         c.FracOfLoads(c.AC()),
		FracANC:        c.FracOfLoads(c.ANC()),
		FracNoConflict: c.FracOfLoads(c.NotConflicting),
	}
}

// Fig5Record builds the structured record for Figure 5, including the
// all-groups aggregate row the table prints as "average".
func Fig5Record(o Options, rows []Fig5Row) results.Record {
	out := make([]results.ClassificationRow, 0, len(rows)+1)
	var total memdep.Classification
	for _, r := range rows {
		out = append(out, classificationRow(r.Group, r.Class))
		total.Add(r.Class)
	}
	out = append(out, classificationRow("average", total))
	return results.New("fig5", results.KindClassification,
		"Load Scheduling Classification (32-entry window)", "", recordOptions(o), out)
}

// Fig6Record builds the structured record for Figure 6.
func Fig6Record(o Options, rows []Fig6Row) results.Record {
	out := make([]results.ClassificationRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, classificationRow(fmt.Sprintf("window-%d", r.Window), r.Class))
	}
	return results.New("fig6", results.KindClassification,
		"Opportunities vs Scheduling Window Size (SysmarkNT)", "", recordOptions(o), out)
}

// Fig7Record builds the structured record for Figure 7: one row per
// (scheme, trace) speedup plus one aggregate row per scheme carrying the
// geometric mean and its excluded-value count.
func Fig7Record(o Options, r Fig7Result) results.Record {
	var out []results.SpeedupRow
	for _, s := range memdep.Schemes() {
		for i, v := range r.Speedup[s] {
			out = append(out, results.SpeedupRow{Scheme: s.String(), Trace: r.Traces[i], Speedup: v})
		}
		mean, dropped := r.AverageCounted(s)
		out = append(out, results.SpeedupRow{Scheme: s.String(), Aggregate: true,
			Speedup: mean, Dropped: dropped})
	}
	return results.New("fig7", results.KindSpeedup,
		"Speedup vs Memory Ordering Scheme (SysmarkNT, 2K Full CHT)", "", recordOptions(o), out)
}

// Fig8Record builds the structured record for Figure 8.
func Fig8Record(o Options, cells []Fig8Cell) results.Record {
	out := make([]results.SpeedupRow, 0, len(cells))
	for _, c := range cells {
		out = append(out, results.SpeedupRow{Group: c.Group, Machine: c.Machine.Label(),
			Scheme: c.Scheme.String(), Aggregate: true, Speedup: c.Speedup, Dropped: c.Dropped})
	}
	return results.New("fig8", results.KindSpeedup,
		"Speedup vs Machine Configuration", "", recordOptions(o), out)
}

// Fig9Record builds the structured record for Figure 9.
func Fig9Record(o Options, rows []Fig9Row) results.Record {
	out := make([]results.CHTRow, 0, len(rows))
	for _, r := range rows {
		c := r.Class
		out = append(out, results.CHTRow{
			Kind: r.Kind, Entries: r.Entries, Loads: c.Loads,
			ACPC: c.ACPC, ACPNC: c.ACPNC, ANCPC: c.ANCPC, ANCPNC: c.ANCPNC,
			FracACPC:     c.FracOfConflicting(c.ACPC),
			FracACPNC:    c.FracOfConflicting(c.ACPNC),
			FracANCPC:    c.FracOfConflicting(c.ANCPC),
			FracANCPNC:   c.FracOfConflicting(c.ANCPNC),
			ANCPCOfLoads: c.FracOfLoads(c.ANCPC),
			ACPNCOfLoads: c.FracOfLoads(c.ACPNC),
		})
	}
	return results.New("fig9", results.KindCHT,
		"CHT Performance (SysmarkNT)", "", recordOptions(o), out)
}

// Fig10Record builds the structured record for Figure 10: one row per
// (group, predictor) outcome tally.
func Fig10Record(o Options, rows []Fig10Row) results.Record {
	hm := func(group, predictor string, oc hitmiss.Outcomes) results.HitMissRow {
		caught := 0.0
		if oc.Misses() > 0 {
			caught = float64(oc.AMPM) / float64(oc.Misses())
		}
		return results.HitMissRow{
			Group: group, Predictor: predictor,
			AHPH: oc.AHPH, AHPM: oc.AHPM, AMPH: oc.AMPH, AMPM: oc.AMPM,
			FracAHPM:   oc.Frac(oc.AHPM),
			FracAMPM:   oc.Frac(oc.AMPM),
			FracMisses: oc.Frac(oc.Misses()),
			CaughtFrac: caught,
		}
	}
	out := make([]results.HitMissRow, 0, 2*len(rows))
	for _, r := range rows {
		out = append(out, hm(r.Group, "local", r.Local), hm(r.Group, "chooser", r.Chooser))
	}
	return results.New("fig10", results.KindHitMiss,
		"Hit-Miss Predictor Performance (statistical)", "", recordOptions(o), out)
}

// Fig11Record builds the structured record for Figure 11, including the
// cross-group aggregate row per predictor.
func Fig11Record(o Options, cells []Fig11Cell) results.Record {
	out := make([]results.SpeedupRow, 0, len(cells)+len(Fig11Predictors))
	byPred := map[string][]float64{}
	for _, c := range cells {
		out = append(out, results.SpeedupRow{Group: c.Group, Predictor: c.Predictor,
			Aggregate: true, Speedup: c.Speedup, Dropped: c.Dropped})
		byPred[c.Predictor] = append(byPred[c.Predictor], c.Speedup)
	}
	for _, p := range Fig11Predictors {
		mean, dropped := stats.GeoMeanCounted(byPred[p])
		out = append(out, results.SpeedupRow{Group: "average", Predictor: p,
			Aggregate: true, Speedup: mean, Dropped: dropped})
	}
	return results.New("fig11", results.KindSpeedup,
		"Speedup of Hit-Miss Prediction (perfect disambiguation, EU4/MEM2)", "",
		recordOptions(o), out)
}

// Fig12Record builds the structured record for Figure 12, with the §4.3
// gain metric evaluated over the figure's penalty axis.
func Fig12Record(o Options, rows []Fig12Row) results.Record {
	out := make([]results.BankRow, 0, len(rows))
	for _, r := range rows {
		metric := make([]float64, len(Fig12Penalties))
		for i, p := range Fig12Penalties {
			metric[i] = r.Metric(p)
		}
		out = append(out, results.BankRow{
			Group: r.Group, Predictor: r.Predictor,
			Total: r.Stats.Total, Correct: r.Stats.Correct, Wrong: r.Stats.Wrong,
			Rate: r.Stats.Rate(), Accuracy: r.Stats.Accuracy(),
			MetricByPenalty: metric,
		})
	}
	return results.New("fig12", results.KindBank,
		"Bank Predictor Comparison (metric vs penalty)", "", recordOptions(o), out)
}

// BankPoliciesRecord builds the structured record for the §2.3 combination
// policy sweep.
func BankPoliciesRecord(o Options, rows []BankPolicyRow) results.Record {
	out := make([]results.BankRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, results.BankRow{
			Policy: r.Policy,
			Total:  r.Stats.Total, Correct: r.Stats.Correct, Wrong: r.Stats.Wrong,
			Rate: r.Stats.Rate(), Accuracy: r.Stats.Accuracy(),
			MetricByPenalty: []float64{r.Stats.Metric(0), r.Stats.Metric(5), r.Stats.Metric(10)},
		})
	}
	return results.New("bankpolicies", results.KindBank,
		"§2.3 combination policies for bank prediction (SpecInt95)", "", recordOptions(o), out)
}

// FigureRecord runs one experiment by ID (see IDs) and returns its
// structured record.
func FigureRecord(id string, o Options) (results.Record, error) {
	res, err := Run(id, "", o)
	return res.Record, err
}

// AllRecords runs every paper figure under o and returns the records in
// paper order — the structured counterpart of `loadsched all`.
func AllRecords(o Options) []results.Record {
	recs := make([]results.Record, 0, len(FigureIDs))
	for _, id := range FigureIDs {
		rec, err := FigureRecord(id, o)
		if err != nil {
			panic(err) // unreachable: FigureIDs are all known
		}
		recs = append(recs, rec)
	}
	return recs
}
