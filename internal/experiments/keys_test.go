package experiments

import (
	"bytes"
	"encoding/binary"
	"testing"

	"loadsched/internal/ooo"
	"loadsched/internal/runner"
	"loadsched/internal/store"
	"loadsched/internal/trace"
)

// runJobDrivers runs every driver that submits runner jobs: Figures 5–8
// and 11, the window/penalty/chtsize sweeps over every group, the CPI
// stacks and the tournament.
func runJobDrivers(t *testing.T, o Options) {
	t.Helper()
	Fig5(o)
	Fig6(o)
	Fig7(o)
	Fig8(o)
	Fig11(o)
	for _, kind := range []string{"window", "penalty", "chtsize"} {
		for _, g := range trace.GroupNames() {
			if _, err := SweepTable(kind, g, o); err != nil {
				t.Fatal(err)
			}
		}
	}
	CPIStacks(o)
	Tournament(o)
}

// TestDriverJobKeysMatchStoreKey: every job the drivers submit at quick
// size is keyed exactly as StoreKey(Key{ConfigKey(cfg), profile, uops,
// warmup}), the key derived per job before machines carried their keys,
// so stores written then stay warm. It captures the jobs without
// simulating, writes a result under each such key, and requires the
// drivers to answer from that store with nothing simulated.
func TestDriverJobKeysMatchStoreKey(t *testing.T) {
	var jobs []runner.Job
	capture := Quick()
	capture.exec = func(js []runner.Job) []ooo.Stats {
		jobs = append(jobs, js...)
		out := make([]ooo.Stats, len(js))
		for i := range out {
			out[i] = ooo.Stats{Cycles: 1, Uops: 1}
		}
		return out
	}
	runJobDrivers(t, capture)

	// The payload is the runner's: Stats in encoding/binary's layout.
	var payload bytes.Buffer
	if err := binary.Write(&payload, binary.LittleEndian, ooo.Stats{Cycles: 1, Uops: 1}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for i, j := range jobs {
		desc, ok := runner.ConfigKey(j.Machine.Config())
		if !ok {
			t.Fatalf("job %d (%s): machine has no key", i, j.Profile.Name)
		}
		k := runner.StoreKey(runner.Key{Machine: desc, Profile: j.Profile, Uops: j.Uops, Warmup: capture.EffectiveWarmup()})
		if !keys[k] {
			keys[k] = true
			if err := st.Put(k, payload.Bytes()); err != nil {
				t.Fatal(err)
			}
		}
	}

	if st, err = store.Open(dir); err != nil {
		t.Fatal(err)
	}
	cache := runner.NewCache()
	cache.SetStore(st)
	warm := Quick()
	warm.Pool = runner.NewIsolated(2, cache)
	runJobDrivers(t, warm)
	c := warm.Pool.Counters()
	if c.Jobs != int64(len(jobs)) || c.Simulated != 0 || c.Uncached != 0 {
		t.Fatalf("warm drivers: %d jobs (captured %d), %d simulated, %d uncached; want every job answered from the store",
			c.Jobs, len(jobs), c.Simulated, c.Uncached)
	}
	if c.DiskHits != int64(len(keys)) || cache.Len() != len(keys) {
		t.Fatalf("warm drivers: %d disk hits over %d memo entries, want one per distinct key (%d)",
			c.DiskHits, cache.Len(), len(keys))
	}
}
