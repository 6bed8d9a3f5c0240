package runner

import (
	"encoding/json"
	"fmt"
	"sync"

	"loadsched/internal/ooo"
	"loadsched/internal/store"
	"loadsched/internal/trace"
)

// Key identifies one simulation for memoization: a canonical machine
// description plus the full workload identity. trace.Profile is a pure value
// struct (equal profiles generate identical traces), so the key is
// comparable and collision-free by construction.
type Key struct {
	Machine      string
	Profile      trace.Profile
	Uops, Warmup int
}

// Describer is implemented by predictors whose behavior is fully determined
// by their construction parameters. Describe returns a canonical description
// used in memo keys, or "" when this particular instance carries state the
// description cannot capture (which disables memoization for configs holding
// it).
type Describer interface {
	Describe() string
}

// ConfigKey derives the canonical machine description of a configuration,
// or ok=false when the configuration is not memoizable: it carries
// observation callbacks (whose side effects a cached result would not
// replay), a predictor that does not describe itself, or a custom policy
// without a PolicyKey.
func ConfigKey(cfg ooo.Config) (key string, ok bool) {
	if cfg.OnLoadRetire != nil || cfg.OnMemoryLoad != nil {
		return "", false
	}
	// A custom speculation policy participates in memoization only when the
	// configuration names its product canonically via PolicyKey — the
	// author's promise that the constructed policy is deterministic and
	// fully determined by that description plus the rest of the config.
	// Undescribed custom policies run uncached, as before.
	policy := "-"
	if cfg.NewPolicy != nil {
		if cfg.PolicyKey == "" {
			return "", false
		}
		policy = cfg.PolicyKey
	}
	cht, ok := describe(cfg.CHT == nil, cfg.CHT)
	if !ok {
		return "", false
	}
	hmp, ok := describe(cfg.HMP == nil, cfg.HMP)
	if !ok {
		return "", false
	}
	bar, ok := describe(cfg.Barrier == nil, cfg.Barrier)
	if !ok {
		return "", false
	}
	bp, ok := describe(cfg.BankPredictor == nil, cfg.BankPredictor)
	if !ok {
		return "", false
	}
	// Scalar fields (including the Hier/Lat/Banking value structs) print
	// canonically once the interface, pointer and callback fields are
	// cleared; new scalar knobs are picked up automatically.
	flat := cfg
	flat.CHT, flat.HMP, flat.Barrier, flat.BankPredictor = nil, nil, nil, nil
	flat.OnLoadRetire, flat.OnMemoryLoad, flat.NewPolicy = nil, nil, nil
	flat.PolicyKey = "" // carried by the policy= component below
	return fmt.Sprintf("%+v|cht=%s|hmp=%s|barrier=%s|bank=%s|policy=%s",
		flat, cht, hmp, bar, bp, policy), true
}

// describe resolves one pluggable component to its canonical description.
func describe(isNil bool, x any) (string, bool) {
	if isNil {
		return "-", true
	}
	d, ok := x.(Describer)
	if !ok {
		return "", false
	}
	s := d.Describe()
	return s, s != ""
}

// Cache memoizes simulation results by Key with single-flight semantics:
// concurrent requests for the same key block until the first computes it.
// It is safe for concurrent use and only ever grows; entries are small
// (ooo.Stats values), and the number of distinct (machine, trace, length)
// combinations a process explores bounds its size.
//
// A cache can additionally be backed by a persistent second level (see
// SetStore): lookups then go memory → disk → compute, with single-flight
// preserved across all three — concurrent requests for one key perform at
// most one disk read or one simulation between them, and a computed result
// is written through so later processes start warm.
type Cache struct {
	mu   sync.Mutex
	m    map[Key]*cacheEntry
	disk *store.Store
}

// cacheEntry is one key's slot. done closes when the in-flight resolution
// finishes; valid then says whether stats carries a real result. An entry
// that resolves invalid (the compute panicked) is removed from the map
// before done closes, so waiters and later requests retry instead of
// consuming zero-value statistics.
type cacheEntry struct {
	done  chan struct{}
	stats ooo.Stats
	valid bool
}

// NewCache returns an empty cache.
func NewCache() *Cache { return &Cache{m: map[Key]*cacheEntry{}} }

// SetStore attaches a persistent second-level store (nil detaches). Results
// already memoized in memory are not flushed; new computations write
// through. Call it before the cache is in use — typically right after
// NewCache, or at CLI startup for the shared cache.
func (c *Cache) SetStore(s *store.Store) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.disk = s
}

// Store returns the attached second-level store, or nil.
func (c *Cache) Store() *store.Store {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.disk
}

// shared is the process-wide cache used by pools from New.
var shared = NewCache()

// Shared returns the process-wide cache.
func Shared() *Cache { return shared }

// outcome classifies how Cache.do served a request, for the pool's
// observability counters.
type outcome int

const (
	// computed: this caller ran the simulation (a miss on every level).
	computed outcome = iota
	// memoHit: a completed in-memory entry was already present.
	memoHit
	// coalesced: an identical computation was in flight; this caller
	// blocked on it instead of duplicating the work (single-flight).
	coalesced
	// diskHit: the persistent store served the result; no simulation ran.
	diskHit
)

// Do returns the memoized result for k, computing it with compute on the
// first request. compute runs at most once per key for the cache's lifetime
// — unless it panics, in which case the key's slot is released and a later
// (or concurrently waiting) request runs compute again.
func (c *Cache) Do(k Key, compute func() ooo.Stats) ooo.Stats {
	st, _ := c.do(k, compute)
	return st
}

// do is Do plus the outcome classification. The first request for k claims
// its slot and resolves it from disk or by computing; concurrent requests
// block on the claim (coalesced), later ones find it done (memoHit). If the
// disk read or compute panics, the deferred release removes the entry from
// the map BEFORE closing done — waiters observe an invalid entry and retry
// (the first of them re-runs compute) while this caller's panic propagates.
func (c *Cache) do(k Key, compute func() ooo.Stats) (ooo.Stats, outcome) {
	var (
		e    *cacheEntry
		disk *store.Store
	)
	for e == nil {
		c.mu.Lock()
		if w, hit := c.m[k]; hit {
			c.mu.Unlock()
			how := coalesced
			select {
			case <-w.done:
				how = memoHit
			default:
				<-w.done
			}
			if w.valid {
				return w.stats, how
			}
			// The in-flight resolution was abandoned and the slot released;
			// compete to claim it again rather than serving zero values.
			continue
		}
		e = &cacheEntry{done: make(chan struct{})}
		c.m[k] = e
		disk = c.disk
		c.mu.Unlock()
	}
	defer func() {
		if !e.valid {
			c.mu.Lock()
			delete(c.m, k)
			c.mu.Unlock()
		}
		close(e.done)
	}()
	if disk != nil {
		if st, ok := diskGet(disk, k); ok {
			e.stats, e.valid = st, true
			return st, diskHit
		}
	}
	e.stats = compute()
	e.valid = true
	if disk != nil {
		// Best effort: a failed write-through degrades persistence, not
		// correctness, and the store's WriteErrors counter surfaces it.
		diskPut(disk, k, e.stats)
	}
	return e.stats, computed
}

// storeKeyVersion names the serialized-statistics schema inside store keys.
// Bumping it (when ooo.Stats changes shape) orphans old entries as misses
// instead of decoding them into the wrong fields.
const storeKeyVersion = "loadsched.stats/v1"

// StoreKey derives the canonical persistent-store key for a memo key: the
// stats schema version plus the printed key struct. Key.Machine is already
// the canonical machine description and trace.Profile is a pure value
// struct, so the printed form is deterministic across processes.
func StoreKey(k Key) string {
	return fmt.Sprintf("%s|%+v", storeKeyVersion, k)
}

// diskGet loads and decodes one persisted result. Undecodable payloads are
// treated as misses (the frame was intact, so this only happens if a future
// schema slipped past the key version — recompute, then overwrite).
func diskGet(s *store.Store, k Key) (ooo.Stats, bool) {
	payload, ok := s.Get(StoreKey(k))
	if !ok {
		return ooo.Stats{}, false
	}
	var st ooo.Stats
	if err := json.Unmarshal(payload, &st); err != nil {
		return ooo.Stats{}, false
	}
	return st, true
}

// diskPut persists one computed result (best effort).
func diskPut(s *store.Store, k Key, st ooo.Stats) {
	payload, err := json.Marshal(st)
	if err != nil {
		return
	}
	s.Put(StoreKey(k), payload)
}

// Len reports the number of memoized simulations.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
