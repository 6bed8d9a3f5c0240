package runner

import (
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"loadsched/internal/memdep"
	"loadsched/internal/ooo"
	"loadsched/internal/store"
)

// keyOf splits k into the memo key of the same store key.
func keyOf(k Key) memoKey {
	var scratch [keyScratch]byte
	head := string(appendKeyHead(scratch[:0], k.Machine))
	return memoKey{head: head, prof: profileText(&k.Profile), uops: k.Uops, warmup: k.Warmup}
}

// TestCachePanicDoesNotPoison is the regression test for the memo-cache
// poisoning bug: a panic inside compute used to close the entry's done
// channel with zero-value stats still in it and leave the entry in the map
// forever, so every later request for the key silently got garbage. The fix
// removes the entry before publishing, so the panic propagates to the
// panicking caller and a later request recomputes. (This test fails against
// the pre-fix Cache.do: the second Do would return zero stats without
// calling compute.)
func TestCachePanicDoesNotPoison(t *testing.T) {
	c := NewCache()
	k := memoKey{head: "m"}
	panicked := func() {
		defer func() {
			if recover() == nil {
				t.Fatal("compute's panic did not propagate to the caller")
			}
		}()
		c.do(k, func() ooo.Stats { panic("engine blew up") })
	}
	panicked()
	if c.Len() != 0 {
		t.Fatalf("cache holds %d entries after a panicked compute, want 0", c.Len())
	}
	var calls atomic.Int32
	want := ooo.Stats{Cycles: 42, Uops: 7}
	got, _ := c.do(k, func() ooo.Stats { calls.Add(1); return want })
	if got != want {
		t.Fatalf("retry after panic returned %+v, want %+v", got, want)
	}
	if calls.Load() != 1 {
		t.Fatalf("retry compute ran %d times, want 1", calls.Load())
	}
}

// TestCachePanicWakesCoalescedWaiters pins the concurrent half of the fix:
// callers coalesced onto an in-flight computation that panics must be woken
// and retry (exactly one of them recomputing), not be handed zero-value
// stats from the dead entry.
func TestCachePanicWakesCoalescedWaiters(t *testing.T) {
	c := NewCache()
	k := memoKey{head: "m"}
	inCompute := make(chan struct{})
	release := make(chan struct{})
	ownerDone := make(chan struct{})
	go func() {
		defer close(ownerDone)
		defer func() { recover() }()
		c.do(k, func() ooo.Stats {
			close(inCompute)
			<-release
			panic("engine blew up mid-flight")
		})
	}()
	<-inCompute // the entry is now in the map; waiters below will coalesce

	const waiters = 8
	want := ooo.Stats{Cycles: 42, Uops: 7}
	var retryCalls atomic.Int32
	var wg sync.WaitGroup
	results := make([]ooo.Stats, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _ = c.do(k, func() ooo.Stats {
				retryCalls.Add(1)
				return want
			})
		}(i)
	}
	close(release)
	<-ownerDone
	wg.Wait()
	for i, st := range results {
		if st != want {
			t.Fatalf("waiter %d got %+v, want %+v (poisoned entry served)", i, st, want)
		}
	}
	if n := retryCalls.Load(); n != 1 {
		t.Fatalf("retry compute ran %d times, want exactly 1 (single-flight across the retry)", n)
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", c.Len())
	}
}

// TestCacheDiskLayerWarmReopen proves persistence: a fresh cache (a new
// process, in effect) over the same store directory serves every key from
// disk without computing.
func TestCacheDiskLayerWarmReopen(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1 := NewCache()
	c1.SetStore(st1)
	keys := []memoKey{
		keyOf(Key{Machine: "a", Uops: 100}),
		keyOf(Key{Machine: "b", Uops: 100}),
		keyOf(Key{Machine: "a", Uops: 200, Warmup: 10}),
	}
	for i, k := range keys {
		want := ooo.Stats{Cycles: int64(100 + i), Uops: uint64(i)}
		if got, how := c1.do(k, func() ooo.Stats { return want }); got != want || how != computed {
			t.Fatalf("cold do(%d) = %+v, %d", i, got, how)
		}
	}
	if sc := st1.Counters(); sc.Writes != int64(len(keys)) {
		t.Fatalf("store writes = %d, want %d", sc.Writes, len(keys))
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewCache()
	c2.SetStore(st2)
	for i, k := range keys {
		want := ooo.Stats{Cycles: int64(100 + i), Uops: uint64(i)}
		got, how := c2.do(k, func() ooo.Stats {
			t.Errorf("key %d recomputed despite a warm store", i)
			return ooo.Stats{}
		})
		if got != want {
			t.Fatalf("warm do(%d) = %+v, want %+v", i, got, want)
		}
		if how != diskHit {
			t.Fatalf("warm do(%d) outcome = %d, want diskHit", i, how)
		}
	}
	// Disk hits populate the in-memory level: a third lookup is a memo hit.
	if _, how := c2.do(keys[0], func() ooo.Stats { return ooo.Stats{} }); how != memoHit {
		t.Fatalf("second warm lookup outcome = %d, want memoHit", how)
	}
}

// TestCacheDiskSingleFlight hammers one key through a store-backed cache:
// memory → disk → compute must still perform exactly one computation and
// one store write between all callers. Run under -race this also proves the
// layered path is race-free.
func TestCacheDiskSingleFlight(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	c.SetStore(st)
	k := memoKey{head: "m"}
	want := ooo.Stats{Cycles: 42}
	var calls atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, _ := c.do(k, func() ooo.Stats { calls.Add(1); return want }); got != want {
				t.Errorf("got %+v, want %+v", got, want)
			}
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	if sc := st.Counters(); sc.Writes != 1 {
		t.Fatalf("store writes = %d, want 1", sc.Writes)
	}
}

// TestCacheDiskCorruptEntryRecomputes: a corrupted persisted entry must
// degrade to a recompute (and an append), never to wrong data.
func TestCacheDiskCorruptEntryRecomputes(t *testing.T) {
	dir := t.TempDir()
	st, _ := store.Open(dir)
	c := NewCache()
	c.SetStore(st)
	k := memoKey{head: "m"}
	want := ooo.Stats{Cycles: 42}
	c.do(k, func() ooo.Stats { return want })

	// Flip a payload bit in the persisted frame, then look it up through a
	// fresh cache.
	seg := onlySegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, _ := store.Open(dir)
	c2 := NewCache()
	c2.SetStore(st2)
	var calls atomic.Int32
	got, how := c2.do(k, func() ooo.Stats { calls.Add(1); return want })
	if got != want || how != computed || calls.Load() != 1 {
		t.Fatalf("corrupt entry: got %+v, outcome %d, calls %d; want recompute", got, how, calls.Load())
	}
	if sc := st2.Counters(); sc.Corrupt != 1 || sc.Writes != 1 {
		t.Fatalf("store counters = %+v; want 1 corrupt, 1 append", sc)
	}
	// The appended frame healed the entry; the damaged segment stays on
	// disk and is rejected again at every Open.
	st3, _ := store.Open(dir)
	c3 := NewCache()
	c3.SetStore(st3)
	if got, how := c3.do(k, func() ooo.Stats { t.Error("recompute"); return ooo.Stats{} }); got != want || how != diskHit {
		t.Fatalf("healed entry: got %+v, outcome %d; want disk hit", got, how)
	}
	if sc := st3.Counters(); sc.Corrupt != 1 {
		t.Fatalf("store counters = %+v; want the damaged frame counted at Open", sc)
	}
}

// TestPoolWarmStoreZeroSimulations is the end-to-end warm-store contract on
// real simulations: a pool over a fresh cache backed by a populated store
// performs zero simulations and reproduces the cold run's statistics
// exactly, with the DiskHits counter proving where results came from.
func TestPoolWarmStoreZeroSimulations(t *testing.T) {
	dir := t.TempDir()
	jobs := []Job{testJob(t, memdep.Traditional), testJob(t, memdep.Inclusive), testJob(t, memdep.Traditional)}

	st1, _ := store.Open(dir)
	c1 := NewCache()
	c1.SetStore(st1)
	cold := NewIsolated(2, c1)
	coldStats := cold.Run(jobs)
	if c := cold.Counters(); c.Simulated != 2 {
		t.Fatalf("cold run simulated %d jobs, want 2 (one per distinct key)", c.Simulated)
	}

	st2, _ := store.Open(dir)
	c2 := NewCache()
	c2.SetStore(st2)
	warm := NewIsolated(2, c2)
	warmStats := warm.Run(jobs)
	c := warm.Counters()
	if c.Simulated != 0 {
		t.Fatalf("warm run simulated %d jobs, want 0", c.Simulated)
	}
	if c.DiskHits != 2 {
		t.Fatalf("warm run disk hits = %d, want 2", c.DiskHits)
	}
	// The repeated Traditional job lands as a memo hit or (depending on
	// timing) coalesces onto the in-flight disk lookup.
	if c.MemoHits+c.Coalesced != 1 {
		t.Fatalf("warm run memo+coalesced = %d+%d, want 1 between them", c.MemoHits, c.Coalesced)
	}
	for i := range coldStats {
		if warmStats[i] != coldStats[i] {
			t.Fatalf("job %d: warm stats %+v diverge from cold %+v", i, warmStats[i], coldStats[i])
		}
	}
	if dc, ok := warm.DiskCounters(); !ok || dc.Hits != 2 {
		t.Fatalf("DiskCounters = %+v, %v; want 2 hits", dc, ok)
	}
}
