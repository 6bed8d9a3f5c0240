package ooo

import (
	"testing"

	"loadsched/internal/cache"
	"loadsched/internal/hitmiss"
	"loadsched/internal/memdep"
	"loadsched/internal/trace"
)

// TestCPIStackSumsToCycles is the partition property: on every trace group,
// under machine configurations exercising each attribution path (ordering
// holds, recovery bubbles, miss replays, bank steering), every simulated
// cycle lands in exactly one CPI-stack bucket — the causes sum to the total
// cycle count.
func TestCPIStackSumsToCycles(t *testing.T) {
	configs := map[string]func() Config{
		"traditional": func() Config {
			return DefaultConfig()
		},
		"inclusive-hmp": func() Config {
			cfg := DefaultConfig()
			cfg.Scheme = memdep.Inclusive
			cfg.CHT = memdep.NewFullCHT(2048, 4, 2, true)
			cfg.HMP = hitmiss.NewLocal()
			cfg.WarmupUops = 3000 // the partition must survive the stats reset
			return cfg
		},
		"opportunistic-banked": func() Config {
			cfg := DefaultConfig()
			cfg.Scheme = memdep.Opportunistic
			cfg.Banking = cache.Banking{Banks: 4, LineBytes: 64}
			cfg.BankPolicy = BankConventional
			return cfg
		},
	}
	for name, build := range configs {
		for _, g := range trace.Groups() {
			p := g.Traces[0]
			e := NewEngine(build(), trace.Replay(p))
			st := e.Run(15000)
			if got := st.CPI.Total(); got != st.Cycles {
				t.Errorf("%s %s/%s: CPI stack sums to %d, want Cycles = %d",
					name, g.Name, p.Name, got, st.Cycles)
			}
			if st.CPI.Base == 0 {
				t.Errorf("%s %s/%s: no base cycles attributed", name, g.Name, p.Name)
			}
		}
	}
}

// TestCPIStackAddPools checks group pooling: summing two runs' stacks keeps
// the partition property over the summed cycle counts.
func TestCPIStackAddPools(t *testing.T) {
	g, _ := trace.GroupByName(trace.GroupSysmarkNT)
	var pooled Stats
	for _, p := range g.Traces[:2] {
		e := NewEngine(DefaultConfig(), trace.Replay(p))
		pooled.Add(e.Run(8000))
	}
	if got := pooled.CPI.Total(); got != pooled.Cycles {
		t.Fatalf("pooled CPI stack sums to %d, want %d", got, pooled.Cycles)
	}
}
