package experiments

import (
	"fmt"

	"loadsched/internal/memdep"
	"loadsched/internal/ooo"
	"loadsched/internal/runner"
	"loadsched/internal/stats"
	"loadsched/internal/trace"
)

// MachineConfig is one execution-width point of Figure 8.
type MachineConfig struct {
	// IntUnits and MemUnits are the figure's EU# and MEM# labels.
	IntUnits, MemUnits int
}

// Label renders the paper's "EU2 MEM1" style label.
func (m MachineConfig) Label() string { return fmt.Sprintf("EU%d MEM%d", m.IntUnits, m.MemUnits) }

// Fig8Machines are the three machine widths of Figure 8.
var Fig8Machines = []MachineConfig{{2, 1}, {2, 2}, {4, 2}}

// Fig8Groups are the figure's workload columns; "Other" pools Games, Java
// and TPC as the paper does.
var Fig8Groups = []string{trace.GroupSysmarkNT, trace.GroupSpecInt95, trace.GroupSysmark95, "Other"}

// fig8Schemes are the bars of Figure 8 (Traditional is the baseline).
var fig8Schemes = []memdep.Scheme{
	memdep.Postponing, memdep.Opportunistic, memdep.Inclusive, memdep.Exclusive, memdep.Perfect,
}

// Fig8Cell is one (group, machine, scheme) speedup.
type Fig8Cell struct {
	Group   string
	Machine MachineConfig
	Scheme  memdep.Scheme
	Speedup float64
	// Dropped counts non-positive per-trace speedups excluded from the
	// cell's geometric mean; non-zero flags a degenerate simulation.
	Dropped int
}

// Fig8 reproduces Figure 8 (Speedup vs Machine Configuration): wider
// machines gain more from better memory ordering; SysmarkNT and SpecInt
// benefit most (8–17% in the paper), the Others less (5–10%). Every
// (group, machine, scheme, trace) run executes concurrently; the EU2 MEM2
// Traditional point is the §3.1 baseline, so it shares its memoized result
// with Figures 5–7.
func Fig8(o Options) []Fig8Cell {
	type block struct {
		gname  string
		m      MachineConfig
		traces []trace.Profile
		start  int // index of the block's Traditional jobs; schemes follow
	}
	// One handle per (machine, scheme) point, Traditional first, shared by
	// every group's traces.
	points := make([][]*runner.Machine, len(Fig8Machines))
	for mi, m := range Fig8Machines {
		for _, s := range append([]memdep.Scheme{memdep.Traditional}, fig8Schemes...) {
			points[mi] = append(points[mi], o.machine(func() ooo.Config {
				cfg := baseConfig(s)
				cfg.IntUnits = m.IntUnits
				cfg.MemUnits = m.MemUnits
				return cfg
			}))
		}
	}
	var blocks []block
	var jobs []runner.Job
	for _, gname := range Fig8Groups {
		traces := fig8Traces(o, gname)
		for mi, m := range Fig8Machines {
			blocks = append(blocks, block{gname: gname, m: m, traces: traces, start: len(jobs)})
			for _, pt := range points[mi] {
				jobs = o.addJobs(jobs, pt, traces)
			}
		}
	}
	sts := o.run(jobs)
	var cells []Fig8Cell
	for _, b := range blocks {
		n := len(b.traces)
		base := make([]float64, n)
		for i := 0; i < n; i++ {
			base[i] = sts[b.start+i].IPC()
		}
		for si, s := range fig8Schemes {
			sp := make([]float64, n)
			for i := 0; i < n; i++ {
				sp[i] = sts[b.start+(si+1)*n+i].IPC() / base[i]
			}
			mean, dropped := stats.GeoMeanCounted(sp)
			cells = append(cells, Fig8Cell{
				Group: b.gname, Machine: b.m, Scheme: s, Speedup: mean, Dropped: dropped,
			})
		}
	}
	return cells
}

// fig8Traces resolves the figure's group columns, pooling "Other".
func fig8Traces(o Options, gname string) []trace.Profile {
	if gname != "Other" {
		return o.groupTraces(gname)
	}
	var out []trace.Profile
	for _, g := range []string{trace.GroupGames, trace.GroupJava, trace.GroupTPC} {
		out = append(out, o.groupTraces(g)...)
	}
	return out
}

// Fig8Table renders Figure 8.
func Fig8Table(cells []Fig8Cell) stats.Table {
	t := stats.Table{
		Title: "Figure 8 — Speedup vs Machine Configuration",
		Note:  "paper: wider machines gain more; NT/ISPEC 8-17%, Sys95/Other 5-10%",
	}
	t.Columns = []string{"group", "machine"}
	for _, s := range fig8Schemes {
		t.Columns = append(t.Columns, s.String())
	}
	type key struct {
		g string
		m MachineConfig
	}
	rows := map[key]map[memdep.Scheme]float64{}
	var order []key
	dropped := 0
	for _, c := range cells {
		k := key{c.Group, c.Machine}
		if rows[k] == nil {
			rows[k] = map[memdep.Scheme]float64{}
			order = append(order, k)
		}
		rows[k][c.Scheme] = c.Speedup
		dropped += c.Dropped
	}
	if dropped > 0 {
		t.Note += fmt.Sprintf(" [warning: %d non-positive speedups excluded from means]", dropped)
	}
	for _, k := range order {
		row := []string{k.g, k.m.Label()}
		for _, s := range fig8Schemes {
			row = append(row, stats.F3(rows[k][s]))
		}
		t.AddRow(row...)
	}
	return t
}
