package runner

import (
	"reflect"
	"sync"

	"loadsched/internal/ooo"
	"loadsched/internal/store"
	"loadsched/internal/trace"
)

// Key names one simulation by its parts: a canonical machine description
// plus the full workload identity and both lengths. StoreKey renders it as
// the key the memo cache and the persistent store share; the runner
// renders the same bytes from a Machine's precomputed head, so it never
// builds a Key per job.
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
// replay), a predictor that does not describe itself, a custom policy
// without a PolicyKey, or any other non-nil pointer, interface or func
// field.
//
// The description is the key text (see codec.go) of the configuration with
// its predictor, callback and policy fields cleared, followed by the CHT,
// HMP and bank-predictor descriptions, each quoted or "-" when absent. New
// scalar knobs are picked up automatically.
func ConfigKey(cfg ooo.Config) (key string, ok bool) {
	if cfg.OnLoadRetire != nil {
		return "", false
	}
	// A custom speculation policy participates in memoization only when the
	// configuration names its product canonically via PolicyKey — the
	// author's promise that the constructed policy is deterministic and
	// fully determined by that description plus the rest of the config.
	// Undescribed custom policies run uncached, as before.
	if cfg.NewPolicy != nil && cfg.PolicyKey == "" {
		return "", false
	}
	cht, ok := describe(cfg.CHT == nil, cfg.CHT)
	if !ok {
		return "", false
	}
	hmp, ok := describe(cfg.HMP == nil, cfg.HMP)
	if !ok {
		return "", false
	}
	bp, ok := describe(cfg.BankPredictor == nil, cfg.BankPredictor)
	if !ok {
		return "", false
	}
	flat := cfg
	flat.CHT, flat.HMP, flat.BankPredictor = nil, nil, nil
	if flat.NewPolicy == nil {
		flat.PolicyKey = "" // names nothing without a custom policy
	}
	flat.NewPolicy = nil
	var scratch [keyScratch]byte
	b, ok := appendText(scratch[:0], reflect.ValueOf(flat), configPlan)
	if !ok {
		return "", false
	}
	for _, d := range [...]string{cht, hmp, bp} {
		if d == "" {
			b = append(b, " -"...)
		} else {
			b = appendQuoted(append(b, ' '), d)
		}
	}
	return string(b), true
}

// describe resolves one pluggable component to its canonical description,
// "" when it is absent.
func describe(isNil bool, x any) (string, bool) {
	if isNil {
		return "", true
	}
	d, ok := x.(Describer)
	if !ok {
		return "", false
	}
	s := d.Describe()
	return s, s != ""
}

// memoKey names one simulation in the memo cache by the pieces of its
// store key: the machine's key head, the workload's profile text and the
// two lengths. A Machine renders its head once and Pool.Run the profile
// text once per unit, so a job's lookup, and the entry it adds on a miss,
// allocate no key; the store key is rendered on the stack to read the
// store, and copied only to write it.
type memoKey struct {
	head, prof   string
	uops, warmup int
}

// appendStoreKey appends the store key k names.
func (k *memoKey) appendStoreKey(b []byte) []byte {
	return appendKeyTail(append(append(b, k.head...), k.prof...), k.uops, k.warmup)
}

// Cache memoizes simulation results by store key (see StoreKey) with
// single-flight semantics: concurrent requests for the same key block until
// the first computes it. It is safe for concurrent use and only ever grows;
// entries are small (ooo.Stats values), and the number of distinct
// (machine, trace, length) combinations a process explores bounds its size.
//
// A cache can additionally be backed by a persistent second level (see
// SetStore): lookups then go memory → disk → compute, with single-flight
// preserved across all three — concurrent requests for one key perform at
// most one disk read or one simulation between them, and a computed result
// is written through so later processes start warm. Both levels use the
// same key: the memory level by its pieces (memoKey), the store by its
// text.
type Cache struct {
	mu   sync.Mutex
	m    map[memoKey]*cacheEntry
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
func NewCache() *Cache { return &Cache{m: map[memoKey]*cacheEntry{}} }

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

// do returns the memoized result for key and how it was served, computing
// it with compute on the first request. The first request for key claims
// its slot and resolves it from disk or by computing; concurrent requests
// block on the claim (coalesced), later ones find it done (memoHit). So
// compute runs at most once per key for the cache's lifetime — unless it
// (or the disk read) panics: the deferred release then removes the entry
// from the map BEFORE closing done, waiters observe an invalid entry and
// retry (the first of them re-runs compute) while this caller's panic
// propagates.
func (c *Cache) do(key memoKey, compute func() ooo.Stats) (ooo.Stats, outcome) {
	var (
		e    *cacheEntry
		disk *store.Store
	)
	for e == nil {
		c.mu.Lock()
		if w, hit := c.m[key]; hit {
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
		c.m[key] = e
		disk = c.disk
		c.mu.Unlock()
	}
	defer func() {
		if !e.valid {
			c.mu.Lock()
			delete(c.m, key)
			c.mu.Unlock()
		}
		close(e.done)
	}()
	if disk == nil {
		e.stats = compute()
		e.valid = true
		return e.stats, computed
	}
	var scratch [keyScratch]byte
	sk := key.appendStoreKey(scratch[:0])
	if diskGet(disk, sk, &e.stats) {
		e.valid = true
		return e.stats, diskHit
	}
	e.stats = compute()
	e.valid = true
	// Best effort: a failed write-through degrades persistence, not
	// correctness, and the store's WriteErrors counter surfaces it.
	diskPut(disk, string(sk), &e.stats)
	return e.stats, computed
}

// storeKeyVersion names the store-key layout and payload encoding. v2 keys
// are key text (see codec.go) and v2 payloads are 8-byte counter words;
// every v1 entry (%+v keys, JSON payloads) is a clean miss under them.
const storeKeyVersion = "loadsched.stats/v2"

// storeKeyPrefix opens every store key: the layout version plus the
// schema fingerprint of the types the key text and payload leave unnamed.
var storeKeyPrefix = storeKeyVersion + "|" + schemaFingerprint + "|"

// StoreKey derives the canonical persistent-store key for a memo key:
// storeKeyPrefix plus the key text of k. Key.Machine is already the
// canonical machine description and trace.Profile is a pure value struct,
// so the text is deterministic across processes. It renders from the same
// pieces as the runner's job keys (see memoKey), byte for byte.
func StoreKey(k Key) string {
	var scratch [keyScratch]byte
	b := appendProfileText(appendKeyHead(scratch[:0], k.Machine), &k.Profile)
	return string(appendKeyTail(b, k.Uops, k.Warmup))
}

// diskGet reads one persisted result straight into st, through a stack
// buffer that fits a well-formed payload. A payload that is not exactly
// one word per Stats counter is a miss and leaves st untouched: the frame
// was intact, so only a payload layout that slipped past the key prefix
// gets here — recompute, then overwrite.
func diskGet(s *store.Store, key []byte, st *ooo.Stats) bool {
	var buf [8 * statsWords]byte
	payload, ok := s.AppendGet(buf[:0], key)
	return ok && decodeStats(payload, st)
}

// diskPut persists one computed result (best effort: the store's
// WriteErrors counter surfaces a failed append).
func diskPut(s *store.Store, key string, st *ooo.Stats) {
	s.Put(key, encodeStats(st))
}

// Len reports the number of memoized simulations.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
