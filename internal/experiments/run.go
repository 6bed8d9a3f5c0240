package experiments

import (
	"fmt"
	"strings"

	"loadsched/internal/results"
	"loadsched/internal/stats"
)

// Result is one experiment run: its structured record, and the text views
// rendered from the same rows on demand, so a caller that only emits
// records (serve, -format json) never builds a table.
type Result struct {
	Record results.Record
	// Table renders the run's text table.
	Table func() stats.Table
	// Chart renders the run's bar chart; nil when the paper draws the
	// experiment as a table only.
	Chart func() *stats.BarChart
}

// IDs lists every experiment Run accepts: the paper figures, the §2.3
// bank-policy comparison, the CPI stacks, the tournament and one
// "sweep-<kind>" per sensitivity sweep. Each ID is also its record's ID.
func IDs() []string {
	ids := append([]string{}, FigureIDs...)
	ids = append(ids, "bankpolicies", "cpistack", "tournament")
	for _, k := range SweepKinds {
		ids = append(ids, "sweep-"+k)
	}
	return ids
}

// Run executes one experiment by ID (see IDs) under o. group names the
// trace group a window, penalty or chtsize sweep runs over; the other
// experiments ignore it.
func Run(id, group string, o Options) (Result, error) {
	switch id {
	case "fig5":
		rows := Fig5(o)
		return Result{Fig5Record(o, rows),
			func() stats.Table { return Fig5Table(rows) },
			func() *stats.BarChart { return Fig5Chart(rows) }}, nil
	case "fig6":
		rows := Fig6(o)
		return Result{Fig6Record(o, rows),
			func() stats.Table { return Fig6Table(rows) },
			func() *stats.BarChart { return Fig6Chart(rows) }}, nil
	case "fig7":
		r := Fig7(o)
		return Result{Fig7Record(o, r),
			func() stats.Table { return Fig7Table(r) },
			func() *stats.BarChart { return Fig7Chart(r) }}, nil
	case "fig8":
		cells := Fig8(o)
		return Result{Fig8Record(o, cells), func() stats.Table { return Fig8Table(cells) }, nil}, nil
	case "fig9":
		rows := Fig9(o)
		return Result{Fig9Record(o, rows), func() stats.Table { return Fig9Table(rows) }, nil}, nil
	case "fig10":
		rows := Fig10(o)
		return Result{Fig10Record(o, rows), func() stats.Table { return Fig10Table(rows) }, nil}, nil
	case "fig11":
		cells := Fig11(o)
		return Result{Fig11Record(o, cells),
			func() stats.Table { return Fig11Table(cells) },
			func() *stats.BarChart { return Fig11Chart(cells) }}, nil
	case "fig12":
		rows := Fig12(o)
		return Result{Fig12Record(o, rows),
			func() stats.Table { return Fig12Table(rows) },
			func() *stats.BarChart { return Fig12Chart(rows, 5) }}, nil
	case "bankpolicies":
		rows := BankPolicies(o)
		return Result{BankPoliciesRecord(o, rows), func() stats.Table { return BankPoliciesTable(rows) }, nil}, nil
	case "cpistack":
		rows := CPIStacks(o)
		return Result{CPIStackRecord(o, rows), func() stats.Table { return CPIStackTable(rows) }, nil}, nil
	case "tournament":
		rows := Tournament(o)
		return Result{TournamentRecord(o, rows), func() stats.Table { return TournamentTable(rows) }, nil}, nil
	}
	kind, ok := strings.CutPrefix(id, "sweep-")
	if !ok {
		return Result{}, fmt.Errorf("experiments: unknown experiment %q (want one of %v)", id, IDs())
	}
	// A sweep's rows are its table's cells: the record is table-shaped, so
	// the table is built either way.
	t, err := sweepTable(kind, group, o)
	if err != nil {
		return Result{}, err
	}
	rec := results.NewTable(id, t.Title, t.Note, recordOptions(o), t.Columns, t.Rows)
	return Result{rec, func() stats.Table { return t }, nil}, nil
}
