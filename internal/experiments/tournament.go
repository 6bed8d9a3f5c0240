package experiments

import (
	"sort"
	"strconv"

	"loadsched/internal/memdep"
	"loadsched/internal/ooo"
	"loadsched/internal/policies"
	"loadsched/internal/results"
	"loadsched/internal/runner"
	"loadsched/internal/stats"
	"loadsched/internal/trace"
)

// The tournament races the built-in policy against the related-work zoo of
// internal/policies on the same host machine — the §3.1 baseline with the
// Inclusive scheme and the reference 2K Full CHT, the configuration the
// paper's own speedup figures center on. Every participant differs only in
// its SpeculationPolicy, so the CPI gap between rows is purely the
// scheduling value of its load-latency prediction; the per-row CPI stack
// shows where the cycles moved (a good predictor converts data-stall and
// miss-replay cycles into base cycles).
//
// All participants are describable (the zoo via PolicyKey) and resettable,
// so the sweep runs fully memoized and engine-pooled — the capability the
// ISSUE 6 bugfix restored. The "default" entry reuses the exact Inclusive
// baseline config of Figures 7/8, sharing its memo entries.

// tournamentScheme is the host machine's ordering scheme.
const tournamentScheme = memdep.Inclusive

// TournamentPolicies lists the participant labels in emission order: the
// built-in policy first, then the zoo in registry order.
func TournamentPolicies() []string {
	return append([]string{"default"}, policies.Names()...)
}

// TournamentRow is one (trace group, policy) race entry.
type TournamentRow struct {
	Group  string
	Policy string
	// Rank orders the group's entries by CPI, 1 = fastest; ties keep
	// TournamentPolicies order.
	Rank int
	// Stats is the pooled run statistics; Stats.CPI partitions Stats.Cycles.
	Stats ooo.Stats
	// CPI is cycles per measured uop; Speedup is the group's default-policy
	// CPI over this entry's (>1 beats the built-in policy).
	CPI, Speedup float64
}

// tournamentMachine builds one participant's machine: the unmodified host
// machine for "default", or the host machine with the named zoo policy
// installed.
func (o Options) tournamentMachine(policy string) *runner.Machine {
	if policy == "default" {
		return o.schemeMachine(tournamentScheme)
	}
	return o.machine(func() ooo.Config {
		cfg := baseConfig(tournamentScheme)
		if err := policies.Install(&cfg, policy); err != nil {
			panic(err) // unreachable: TournamentPolicies names are registered
		}
		return cfg
	})
}

// Tournament races every participant over every trace group and returns the
// rows grouped by trace group, ranked fastest-first within each.
func Tournament(o Options) []TournamentRow {
	names := TournamentPolicies()
	type span struct {
		group, policy string
		lo, hi        int
	}
	points := make([]*runner.Machine, len(names))
	for i, name := range names {
		points[i] = o.tournamentMachine(name)
	}
	var spans []span
	var jobs []runner.Job
	for _, gname := range trace.GroupNames() {
		for i, name := range names {
			start := len(jobs)
			jobs = o.addJobs(jobs, points[i], o.groupTraces(gname))
			spans = append(spans, span{gname, name, start, len(jobs)})
		}
	}
	sts := o.run(jobs)

	rows := make([]TournamentRow, 0, len(spans))
	for g := 0; g < len(spans); g += len(names) {
		group := make([]TournamentRow, 0, len(names))
		var defaultCPI float64
		for i, sp := range spans[g : g+len(names)] {
			var pooled ooo.Stats
			for _, st := range sts[sp.lo:sp.hi] {
				pooled.Add(st)
			}
			cpi := 0.0
			if pooled.Uops > 0 {
				cpi = float64(pooled.Cycles) / float64(pooled.Uops)
			}
			if i == 0 { // "default" leads TournamentPolicies
				defaultCPI = cpi
			}
			group = append(group, TournamentRow{
				Group: sp.group, Policy: sp.policy, Stats: pooled, CPI: cpi,
			})
		}
		for i := range group {
			if group[i].CPI > 0 {
				group[i].Speedup = defaultCPI / group[i].CPI
			}
		}
		// Rank by CPI, fastest first; SliceStable keeps registration order
		// on exact ties, so the ordering is deterministic.
		sort.SliceStable(group, func(a, b int) bool { return group[a].CPI < group[b].CPI })
		for i := range group {
			group[i].Rank = i + 1
		}
		rows = append(rows, group...)
	}
	return rows
}

// TournamentTable renders the race as a per-group leaderboard.
func TournamentTable(rows []TournamentRow) stats.Table {
	t := stats.Table{
		Title: "Policy Tournament — related-work zoo vs built-in policy (Inclusive, 2K Full CHT)",
		Note:  "speedup is the group's default-policy CPI over the row's; stack shares are of all cycles",
		Columns: []string{"group", "rank", "policy", "CPI", "speedup",
			"base", "ordering", "miss-replay", "data"},
	}
	for _, r := range rows {
		c := r.Stats.CPI
		cyc := float64(r.Stats.Cycles)
		if cyc == 0 {
			cyc = 1
		}
		share := func(v int64) string { return stats.Pct(float64(v) / cyc) }
		t.AddRow(r.Group, strconv.Itoa(r.Rank), r.Policy,
			stats.F2(r.CPI), stats.F2(r.Speedup),
			share(c.Base), share(c.OrderingWait), share(c.MissReplay), share(c.DataStall))
	}
	return t
}

// TournamentRecord builds the structured tournament record; Validate
// enforces the CPI-partition invariant on every row.
func TournamentRecord(o Options, rows []TournamentRow) results.Record {
	out := make([]results.TournamentRow, 0, len(rows))
	for _, r := range rows {
		c := r.Stats.CPI
		cyc := r.Stats.Cycles
		frac := func(v int64) float64 {
			if cyc == 0 {
				return 0
			}
			return float64(v) / float64(cyc)
		}
		out = append(out, results.TournamentRow{
			Group: r.Group, Policy: r.Policy, Rank: r.Rank,
			Cycles: cyc, Uops: r.Stats.Uops, CPI: r.CPI, Speedup: r.Speedup,
			Base: c.Base, Frontend: c.Frontend, WindowFull: c.WindowFull,
			PortContention: c.PortContention, OrderingWait: c.OrderingWait,
			BankConflict: c.BankConflict, CollisionRecovery: c.CollisionRecovery,
			MissReplay: c.MissReplay, DataStall: c.DataStall,
			FracBase:     frac(c.Base),
			FracOrdering: frac(c.OrderingWait),
			FracData:     frac(c.DataStall),
		})
	}
	return results.New("tournament", results.KindTournament,
		"Policy Tournament — related-work zoo vs built-in policy", "",
		recordOptions(o), out)
}
