// Package results defines the machine-readable results layer: typed,
// versioned records for every paper figure and sensitivity sweep, plus JSON
// and CSV emitters. Where internal/stats renders a figure for humans, this
// package renders the same data for programs — regression tracking, the
// BENCH_results.json perf trajectory, and cross-PR shape checks against the
// paper's published distributions all consume these records.
//
// Determinism contract: a Record built from a figure run contains only
// values that are a pure function of the experiment options (never worker
// counts, timestamps or wall times), so emitted JSON and CSV are
// byte-identical across -j settings. Runner counters, which are
// timing-dependent, ride in the Report envelope's optional Runner field and
// are only attached on explicit request (the CLI's -v).
package results

import (
	"fmt"
	"time"
)

// SchemaVersion names the record layout this package emits. Consumers pin
// on it; bump it when a row type changes incompatibly.
const SchemaVersion = "loadsched.results/v1"

// Kind discriminates the typed row layout of a Record.
type Kind string

// The row kinds.
const (
	// KindClassification rows bucket dynamic loads (Figures 5 and 6).
	KindClassification Kind = "classification"
	// KindSpeedup rows report IPC ratios over a baseline (Figures 7, 8, 11).
	KindSpeedup Kind = "speedup"
	// KindCHT rows report collision-history-table bucket shares (Figure 9).
	KindCHT Kind = "cht"
	// KindHitMiss rows report hit-miss predictor outcomes (Figure 10).
	KindHitMiss Kind = "hitmiss"
	// KindBank rows report bank-predictor operating points (Figure 12 and
	// the §2.3 combination policies).
	KindBank Kind = "bank"
	// KindTable rows are positional strings mirroring a rendered text table
	// (sensitivity sweeps).
	KindTable Kind = "table"
	// KindCPIStack rows attribute every simulated cycle to a stall cause;
	// per-cause cycles sum to the row's total cycles by construction.
	KindCPIStack Kind = "cpistack"
	// KindTournament rows race speculation policies per trace group, ranked
	// on CPI; each row carries its full cycle-attribution stack.
	KindTournament Kind = "tournament"
)

// Options echoes the experiment configuration a record was produced with.
// Worker count is deliberately absent: records must not depend on it.
type Options struct {
	Uops           int `json:"uops"`
	Warmup         int `json:"warmup"`
	TracesPerGroup int `json:"traces_per_group,omitempty"`
}

// Record is the versioned envelope for one figure or sweep.
type Record struct {
	Schema  string  `json:"schema"`
	ID      string  `json:"id"`
	Kind    Kind    `json:"kind"`
	Title   string  `json:"title"`
	Note    string  `json:"note,omitempty"`
	Options Options `json:"options"`
	// Columns names the positional cells of KindTable rows; empty for the
	// typed kinds, whose column set is fixed by the row struct.
	Columns []string `json:"columns,omitempty"`
	// Rows is a slice of the kind's row type: []ClassificationRow,
	// []SpeedupRow, []CHTRow, []HitMissRow, []BankRow or [][]string.
	Rows any `json:"rows"`
}

// Report is the top-level envelope one CLI invocation emits.
type Report struct {
	Schema  string   `json:"schema"`
	Command string   `json:"command,omitempty"`
	Options Options  `json:"options"`
	Records []Record `json:"records"`
	// Runner carries pool counters when observability was requested (-v);
	// it is omitted otherwise because its values are timing-dependent.
	Runner *RunnerCounters `json:"runner,omitempty"`
}

// RunnerCounters mirrors runner.Counters for the JSON envelope.
type RunnerCounters struct {
	// Jobs is the number of engine simulations requested through the pool.
	Jobs int64 `json:"jobs"`
	// Simulated is how many of those actually ran (the rest were served by
	// the memo cache or coalesced onto an in-flight computation).
	Simulated int64 `json:"simulated"`
	// MemoHits served a completed cached result; Coalesced waited on an
	// identical in-flight simulation; Uncached ran outside the cache
	// (non-describable configs).
	MemoHits  int64 `json:"memo_hits"`
	Coalesced int64 `json:"coalesced"`
	Uncached  int64 `json:"uncached"`
	// DiskHits served results from the persistent store (zero simulations in
	// any process); the Store* fields snapshot the store's own counters —
	// process-wide totals, unlike the per-pool numbers above. All four are
	// omitted when no store is attached.
	DiskHits     int64 `json:"disk_hits,omitempty"`
	StoreWrites  int64 `json:"store_writes,omitempty"`
	StoreCorrupt int64 `json:"store_corrupt,omitempty"`
	StoreHits    int64 `json:"store_hits,omitempty"`
	// MapTasks counts fan-out units dispatched through runner.Map,
	// including the Do calls Pool.Run routes through it.
	MapTasks int64 `json:"map_tasks"`
	// EngineBuilds counts the engines constructed, one per simulation.
	// EngineReuses is always 0; it remains only because benchmark reports
	// still read it.
	EngineBuilds int64 `json:"engine_builds"`
	EngineReuses int64 `json:"engine_reuses"`
	// SimMillis is wall time spent inside simulations, summed over jobs
	// (exceeds elapsed time when workers overlap).
	SimMillis float64 `json:"sim_millis"`
	// CacheEntries is the memo cache size after the run.
	CacheEntries int `json:"cache_entries"`
}

// String renders the counters as the CLI's one-line -v summary. The disk
// clause appears only when a persistent store saw any traffic.
func (c RunnerCounters) String() string {
	s := fmt.Sprintf(
		"runner: %d jobs (%d simulated, %d memo hits, %d coalesced, %d uncached), %d map tasks, %d engines built, %s sim time, %d cache entries",
		c.Jobs, c.Simulated, c.MemoHits, c.Coalesced, c.Uncached,
		c.MapTasks, c.EngineBuilds,
		time.Duration(c.SimMillis*float64(time.Millisecond)).Round(time.Millisecond),
		c.CacheEntries)
	if c.DiskHits != 0 || c.StoreWrites != 0 || c.StoreCorrupt != 0 || c.StoreHits != 0 {
		s += fmt.Sprintf(", %d disk hits (store: %d writes, %d corrupt)",
			c.DiskHits, c.StoreWrites, c.StoreCorrupt)
	}
	return s
}

// ClassificationRow is one load-scheduling classification tally: Figure 5
// keys rows by trace group, Figure 6 by scheduling-window size.
type ClassificationRow struct {
	Key    string `json:"key"`
	Loads  uint64 `json:"loads"`
	ACPC   uint64 `json:"ac_pc"`
	ACPNC  uint64 `json:"ac_pnc"`
	ANCPC  uint64 `json:"anc_pc"`
	ANCPNC uint64 `json:"anc_pnc"`
	// NotConflicting loads had no older unresolved store address.
	NotConflicting uint64 `json:"not_conflicting"`
	// FracAC / FracANC / FracNoConflict are shares of all loads (the
	// figure's y-axis).
	FracAC         float64 `json:"frac_ac"`
	FracANC        float64 `json:"frac_anc"`
	FracNoConflict float64 `json:"frac_no_conflict"`
}

// SpeedupRow is one IPC ratio over a figure's baseline machine. The label
// fields used vary by figure: Figure 7 sets Scheme and Trace (or Aggregate
// for the geomean row), Figure 8 sets Group, Machine and Scheme, Figure 11
// sets Group and Predictor.
type SpeedupRow struct {
	Group     string `json:"group,omitempty"`
	Machine   string `json:"machine,omitempty"`
	Scheme    string `json:"scheme,omitempty"`
	Predictor string `json:"predictor,omitempty"`
	Trace     string `json:"trace,omitempty"`
	// Aggregate marks geometric-mean rows.
	Aggregate bool    `json:"aggregate,omitempty"`
	Speedup   float64 `json:"speedup"`
	// Dropped counts non-positive speedups excluded from an aggregate's
	// geometric mean; non-zero values flag a degenerate simulation.
	Dropped int `json:"dropped,omitempty"`
}

// CHTRow is one collision-history-table configuration's bucket tally
// (Figure 9).
type CHTRow struct {
	Kind    string `json:"kind"`
	Entries int    `json:"entries"`
	Loads   uint64 `json:"loads"`
	ACPC    uint64 `json:"ac_pc"`
	ACPNC   uint64 `json:"ac_pnc"`
	ANCPC   uint64 `json:"anc_pc"`
	ANCPNC  uint64 `json:"anc_pnc"`
	// The fractions mirror the rendered table: bucket shares of conflicting
	// loads, plus the of-all-loads rates §4.1 quotes.
	FracACPC     float64 `json:"frac_ac_pc"`
	FracACPNC    float64 `json:"frac_ac_pnc"`
	FracANCPC    float64 `json:"frac_anc_pc"`
	FracANCPNC   float64 `json:"frac_anc_pnc"`
	ANCPCOfLoads float64 `json:"anc_pc_of_loads"`
	ACPNCOfLoads float64 `json:"ac_pnc_of_loads"`
}

// HitMissRow is one (group, predictor) hit-miss outcome tally (Figure 10).
type HitMissRow struct {
	Group     string `json:"group"`
	Predictor string `json:"predictor"`
	AHPH      uint64 `json:"ah_ph"`
	AHPM      uint64 `json:"ah_pm"`
	AMPH      uint64 `json:"am_ph"`
	AMPM      uint64 `json:"am_pm"`
	// FracAHPM / FracAMPM / FracMisses are shares of all loads; CaughtFrac
	// is AM-PM over all actual misses (the "% of misses caught" headline).
	FracAHPM   float64 `json:"frac_ah_pm"`
	FracAMPM   float64 `json:"frac_am_pm"`
	FracMisses float64 `json:"frac_misses"`
	CaughtFrac float64 `json:"caught_frac"`
}

// BankRow is one bank predictor's (or combination policy's) operating point
// (Figure 12, §2.3 policies). MetricByPenalty is the §4.3 gain metric
// evaluated at integer penalties 0..len-1.
type BankRow struct {
	Group           string    `json:"group,omitempty"`
	Predictor       string    `json:"predictor,omitempty"`
	Policy          string    `json:"policy,omitempty"`
	Total           uint64    `json:"total"`
	Correct         uint64    `json:"correct"`
	Wrong           uint64    `json:"wrong"`
	Rate            float64   `json:"rate"`
	Accuracy        float64   `json:"accuracy"`
	MetricByPenalty []float64 `json:"metric_by_penalty,omitempty"`
}

// CPIStackRow is one machine/workload's cycle-attribution stack. The cause
// columns partition Cycles (they sum to it exactly); the Frac* columns are
// the same causes as shares of all cycles — the stacked-bar y-axis.
type CPIStackRow struct {
	Key    string  `json:"key"`
	Cycles int64   `json:"cycles"`
	Uops   uint64  `json:"uops"`
	CPI    float64 `json:"cpi"`
	// The cause partition, in pipeline order.
	Base              int64 `json:"base"`
	Frontend          int64 `json:"frontend"`
	WindowFull        int64 `json:"window_full"`
	PortContention    int64 `json:"port_contention"`
	OrderingWait      int64 `json:"ordering_wait"`
	BankConflict      int64 `json:"bank_conflict"`
	CollisionRecovery int64 `json:"collision_recovery"`
	MissReplay        int64 `json:"miss_replay"`
	DataStall         int64 `json:"data_stall"`
	// Shares of all cycles for the dominant stall causes.
	FracBase     float64 `json:"frac_base"`
	FracOrdering float64 `json:"frac_ordering"`
	FracData     float64 `json:"frac_data"`
}

// TournamentRow is one (trace group, policy) entry of the policy-zoo race:
// pooled run statistics, the CPI ranking within the group, the speedup over
// the group's default-policy entry, and the full cycle-attribution stack
// (the cause columns partition Cycles exactly, as in CPIStackRow).
type TournamentRow struct {
	Group  string `json:"group"`
	Policy string `json:"policy"`
	// Rank orders the group's entries by CPI, 1 = fastest; ties keep
	// registration order.
	Rank    int     `json:"rank"`
	Cycles  int64   `json:"cycles"`
	Uops    uint64  `json:"uops"`
	CPI     float64 `json:"cpi"`
	Speedup float64 `json:"speedup"`
	// The cause partition, in pipeline order.
	Base              int64 `json:"base"`
	Frontend          int64 `json:"frontend"`
	WindowFull        int64 `json:"window_full"`
	PortContention    int64 `json:"port_contention"`
	OrderingWait      int64 `json:"ordering_wait"`
	BankConflict      int64 `json:"bank_conflict"`
	CollisionRecovery int64 `json:"collision_recovery"`
	MissReplay        int64 `json:"miss_replay"`
	DataStall         int64 `json:"data_stall"`
	// Shares of all cycles for the causes the zoo policies move.
	FracBase     float64 `json:"frac_base"`
	FracOrdering float64 `json:"frac_ordering"`
	FracData     float64 `json:"frac_data"`
}

// New assembles a Record with the current schema version.
func New(id string, kind Kind, title, note string, opts Options, rows any) Record {
	return Record{Schema: SchemaVersion, ID: id, Kind: kind, Title: title,
		Note: note, Options: opts, Rows: rows}
}

// NewTable assembles a table-kind Record from a rendered table's columns
// and positional string rows (the sweep path).
func NewTable(id, title, note string, opts Options, columns []string, rows [][]string) Record {
	return Record{Schema: SchemaVersion, ID: id, Kind: KindTable, Title: title,
		Note: note, Options: opts, Columns: columns, Rows: rows}
}

// NewReport wraps records in a Report envelope.
func NewReport(command string, opts Options, recs []Record) Report {
	return Report{Schema: SchemaVersion, Command: command, Options: opts, Records: recs}
}

// Validate checks a record's structural invariants: schema version, a known
// kind, and rows of the kind's type. Decoded and freshly built records both
// pass through it in tests and in the CLI's self-checks.
func (r Record) Validate() error {
	if r.Schema != SchemaVersion {
		return fmt.Errorf("results: record %q has schema %q, want %q", r.ID, r.Schema, SchemaVersion)
	}
	if r.ID == "" {
		return fmt.Errorf("results: record with empty id")
	}
	ok := false
	switch r.Kind {
	case KindClassification:
		_, ok = r.Rows.([]ClassificationRow)
	case KindSpeedup:
		_, ok = r.Rows.([]SpeedupRow)
	case KindCHT:
		_, ok = r.Rows.([]CHTRow)
	case KindHitMiss:
		_, ok = r.Rows.([]HitMissRow)
	case KindBank:
		_, ok = r.Rows.([]BankRow)
	case KindCPIStack:
		rows, typed := r.Rows.([]CPIStackRow)
		ok = typed
		// The defining invariant of a CPI stack: causes partition cycles.
		for _, row := range rows {
			sum := row.Base + row.Frontend + row.WindowFull + row.PortContention +
				row.OrderingWait + row.BankConflict + row.CollisionRecovery +
				row.MissReplay + row.DataStall
			if sum != row.Cycles {
				return fmt.Errorf("results: cpistack record %q row %q: causes sum to %d, cycles are %d",
					r.ID, row.Key, sum, row.Cycles)
			}
		}
	case KindTournament:
		rows, typed := r.Rows.([]TournamentRow)
		ok = typed
		// Tournament rows inherit the CPI-stack partition invariant.
		for _, row := range rows {
			sum := row.Base + row.Frontend + row.WindowFull + row.PortContention +
				row.OrderingWait + row.BankConflict + row.CollisionRecovery +
				row.MissReplay + row.DataStall
			if sum != row.Cycles {
				return fmt.Errorf("results: tournament record %q row %s/%s: causes sum to %d, cycles are %d",
					r.ID, row.Group, row.Policy, sum, row.Cycles)
			}
			if row.Rank < 1 {
				return fmt.Errorf("results: tournament record %q row %s/%s: rank %d < 1",
					r.ID, row.Group, row.Policy, row.Rank)
			}
		}
	case KindTable:
		_, ok = r.Rows.([][]string)
		if ok && len(r.Columns) == 0 {
			return fmt.Errorf("results: table record %q has no columns", r.ID)
		}
	default:
		return fmt.Errorf("results: record %q has unknown kind %q", r.ID, r.Kind)
	}
	if !ok {
		return fmt.Errorf("results: record %q rows are %T, not the %s row type", r.ID, r.Rows, r.Kind)
	}
	return nil
}

// Validate checks the report envelope and every record in it.
func (r Report) Validate() error {
	if r.Schema != SchemaVersion {
		return fmt.Errorf("results: report has schema %q, want %q", r.Schema, SchemaVersion)
	}
	for _, rec := range r.Records {
		if err := rec.Validate(); err != nil {
			return err
		}
	}
	return nil
}
