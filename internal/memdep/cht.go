package memdep

import (
	"fmt"

	"loadsched/internal/predict"
)

// chtEntry is one way of a tagged CHT set.
type chtEntry struct {
	tag      uint64
	valid    bool
	lru      uint64
	counter  predict.SatCounter
	distance int
}

// tagTable is the shared set-associative, LRU-replaced table under the
// tagged CHT variants. It is indexed by load instruction-pointer bits, as
// the paper's tables are. The ways of all sets live in one flat backing
// slice (set s occupies entries[s*ways : (s+1)*ways]) so building a table is
// a single allocation. The backing slice is allocated lazily, on the first
// entry insertion: figure sweeps construct a predictor per machine point
// just to derive the machine description, and when the runner's memo cache
// answers a job no machine is ever built from its config — deferring the
// table (the dominant per-config allocation) makes such discarded
// predictors cost a few words.
type tagTable struct {
	entries []chtEntry
	numSets int
	ways    int
	tick    uint64
}

func newTagTable(entries, ways int) *tagTable {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic(fmt.Sprintf("memdep: bad table geometry entries=%d ways=%d", entries, ways))
	}
	numSets := entries / ways
	if numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("memdep: set count %d not a power of two", numSets))
	}
	return &tagTable{numSets: numSets, ways: ways}
}

func (t *tagTable) index(ip uint64) (set, tag uint64) {
	v := ip >> 2 // uops are 4-byte aligned in the synthetic ISA
	return v % uint64(t.numSets), v / uint64(t.numSets)
}

// set returns the ways of one set as a sub-slice of the flat backing array.
func (t *tagTable) set(s uint64) []chtEntry {
	return t.entries[int(s)*t.ways : int(s+1)*t.ways]
}

// find returns the entry for ip or nil, refreshing LRU on touch. An
// untouched (never-allocated) table holds nothing.
func (t *tagTable) find(ip uint64, touch bool) *chtEntry {
	if t.entries == nil {
		return nil
	}
	set, tag := t.index(ip)
	ways := t.set(set)
	for i := range ways {
		e := &ways[i]
		if e.valid && e.tag == tag {
			if touch {
				t.tick++
				e.lru = t.tick
			}
			return e
		}
	}
	return nil
}

// allocate returns ip's entry, creating it (evicting LRU) if absent.
func (t *tagTable) allocate(ip uint64) *chtEntry {
	if e := t.find(ip, true); e != nil {
		return e
	}
	if t.entries == nil {
		t.entries = make([]chtEntry, t.numSets*t.ways)
	}
	set, tag := t.index(ip)
	ways := t.set(set)
	victim := 0
	for i := range ways {
		e := &ways[i]
		if !e.valid {
			victim = i
			break
		}
		if e.lru < ways[victim].lru {
			victim = i
		}
	}
	t.tick++
	ways[victim] = chtEntry{tag: tag, valid: true, lru: t.tick}
	return &ways[victim]
}

// mergeDistance folds a newly observed collision distance into an entry,
// converging on the minimal safe distance as §2.1 describes.
func mergeDistance(cur, observed int) int {
	if observed == NoDistance {
		return cur
	}
	if cur == NoDistance || observed < cur {
		return observed
	}
	return cur
}

// FullCHT is the Full CHT of Figure 2: tagged, a saturating-counter
// collision predictor per entry, and optionally a collision distance. A new
// entry is allocated only when a load actually collides for the first time
// (the allocation policy §2.1 suggests), so the table holds colliding and
// formerly-colliding loads.
type FullCHT struct {
	table         *tagTable
	entries, ways int
	counterBits   uint
	trackDistance bool
}

// NewFullCHT builds a Full CHT. The paper's reference configuration is 2K
// entries, 4-way, 2-bit counters.
func NewFullCHT(entries, ways int, counterBits uint, trackDistance bool) *FullCHT {
	return &FullCHT{
		table: newTagTable(entries, ways), entries: entries, ways: ways,
		counterBits: counterBits, trackDistance: trackDistance,
	}
}

// Lookup implements Predictor. A load absent from the table is predicted
// non-colliding (the default for never-colliding loads).
func (c *FullCHT) Lookup(ip uint64) Prediction {
	e := c.table.find(ip, false)
	if e == nil {
		return Prediction{}
	}
	p := Prediction{Colliding: e.counter.Taken()}
	if p.Colliding && c.trackDistance {
		p.Distance = e.distance
	}
	return p
}

// Record implements Predictor: allocation only on an actual collision,
// counter training on every retire of a resident load.
func (c *FullCHT) Record(ip uint64, collided bool, distance int) {
	e := c.table.find(ip, true)
	if e == nil {
		if !collided {
			return
		}
		e = c.table.allocate(ip)
		e.counter = predict.NewSatCounter(c.counterBits)
	}
	e.counter.Train(collided)
	if collided && c.trackDistance {
		e.distance = mergeDistance(e.distance, distance)
	}
}

// Name implements Predictor.
func (c *FullCHT) Name() string { return fmt.Sprintf("full-%d", c.entries) }

// Describe canonically identifies a freshly built table for the simulation
// runner's memo keys: the construction parameters fully determine behavior.
func (c *FullCHT) Describe() string {
	return fmt.Sprintf("full(%d,%d,%d,%t)", c.entries, c.ways, c.counterBits, c.trackDistance)
}

// ImplicitCHT is the Implicit-predictor CHT: tag-only and sticky. Presence
// in the table *is* the colliding prediction, so the predictor costs zero
// state bits beyond the tags. Once a load collides it stays predicted
// colliding until its entry is replaced.
type ImplicitCHT struct {
	table         *tagTable
	entries, ways int
	trackDistance bool
}

// NewImplicitCHT builds a tag-only sticky CHT.
func NewImplicitCHT(entries, ways int, trackDistance bool) *ImplicitCHT {
	return &ImplicitCHT{table: newTagTable(entries, ways), entries: entries, ways: ways, trackDistance: trackDistance}
}

// Lookup implements Predictor: a tag match means colliding.
func (c *ImplicitCHT) Lookup(ip uint64) Prediction {
	e := c.table.find(ip, false)
	if e == nil {
		return Prediction{}
	}
	p := Prediction{Colliding: true}
	if c.trackDistance {
		p.Distance = e.distance
	}
	return p
}

// Record implements Predictor: colliding loads allocate (sticky); retires of
// non-colliding loads leave the table untouched.
func (c *ImplicitCHT) Record(ip uint64, collided bool, distance int) {
	if !collided {
		return
	}
	e := c.table.allocate(ip)
	if c.trackDistance {
		e.distance = mergeDistance(e.distance, distance)
	}
}

// Name implements Predictor.
func (c *ImplicitCHT) Name() string { return fmt.Sprintf("tagged-%d", c.entries) }

// Describe canonically identifies a freshly built table for memo keys.
func (c *ImplicitCHT) Describe() string {
	return fmt.Sprintf("tagged(%d,%d,%t)", c.entries, c.ways, c.trackDistance)
}

// TaglessCHT is the tagless, direct-mapped CHT: an array of 1-bit counters
// indexed by instruction-pointer bits. Its tiny entries buy many entries but
// suffer aliasing between loads that share an index.
type TaglessCHT struct {
	counters      []predict.SatCounter
	distances     []int
	entries       int
	counterBits   uint
	trackDistance bool
}

// NewTaglessCHT builds a tagless CHT with the given (power-of-two) entry
// count; the paper sweeps 2K–32K 1-bit entries. Like the tagged tables,
// the counter arrays materialize on first use, so predictors built only to
// describe a memoized job cost a few words.
func NewTaglessCHT(entries int, counterBits uint, trackDistance bool) *TaglessCHT {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic(fmt.Sprintf("memdep: tagless entries %d not a power of two", entries))
	}
	return &TaglessCHT{entries: entries, counterBits: counterBits, trackDistance: trackDistance}
}

func (c *TaglessCHT) index(ip uint64) uint64 { return (ip >> 2) % uint64(c.entries) }

// ensure materializes the counter arrays at construction state.
func (c *TaglessCHT) ensure() {
	if c.counters != nil {
		return
	}
	c.counters = make([]predict.SatCounter, c.entries)
	c.distances = make([]int, c.entries)
	init := predict.NewSatCounter(c.counterBits)
	for i := range c.counters {
		c.counters[i] = init
	}
}

// Lookup implements Predictor.
func (c *TaglessCHT) Lookup(ip uint64) Prediction {
	c.ensure()
	i := c.index(ip)
	p := Prediction{Colliding: c.counters[i].Taken()}
	if p.Colliding && c.trackDistance {
		p.Distance = c.distances[i]
	}
	return p
}

// Record implements Predictor.
func (c *TaglessCHT) Record(ip uint64, collided bool, distance int) {
	c.ensure()
	i := c.index(ip)
	c.counters[i].Train(collided)
	if collided && c.trackDistance {
		c.distances[i] = mergeDistance(c.distances[i], distance)
	}
}

// Name implements Predictor.
func (c *TaglessCHT) Name() string { return fmt.Sprintf("tagless-%d", c.entries) }

// Describe canonically identifies a freshly built table for memo keys.
func (c *TaglessCHT) Describe() string {
	return fmt.Sprintf("tagless(%d,%d,%t)", c.entries, c.counterBits, c.trackDistance)
}

// CombinedCHT couples an Implicit-predictor CHT with a Tagless CHT ("best of
// both worlds", §2.1): a load is predicted non-colliding only when there is
// no tag match AND the tagless state is non-colliding. This maximizes AC-PC
// at the cost of more ANC-PC.
type CombinedCHT struct {
	tagged  *ImplicitCHT
	tagless *TaglessCHT
}

// NewCombinedCHT builds the combination; the paper pairs the swept
// tagged-only sizes with a fixed 4K-entry tagless table.
func NewCombinedCHT(taggedEntries, ways, taglessEntries int, trackDistance bool) *CombinedCHT {
	return &CombinedCHT{
		tagged:  NewImplicitCHT(taggedEntries, ways, trackDistance),
		tagless: NewTaglessCHT(taglessEntries, 1, trackDistance),
	}
}

// Lookup implements Predictor.
func (c *CombinedCHT) Lookup(ip uint64) Prediction {
	pt := c.tagged.Lookup(ip)
	if pt.Colliding {
		return pt
	}
	return c.tagless.Lookup(ip)
}

// Record implements Predictor.
func (c *CombinedCHT) Record(ip uint64, collided bool, distance int) {
	c.tagged.Record(ip, collided, distance)
	c.tagless.Record(ip, collided, distance)
}

// Name implements Predictor.
func (c *CombinedCHT) Name() string { return fmt.Sprintf("combined-%d", c.tagged.entries) }

// Describe canonically identifies a freshly built table for memo keys.
func (c *CombinedCHT) Describe() string {
	return "combined(" + c.tagged.Describe() + "," + c.tagless.Describe() + ")"
}

// AlwaysColliding predicts every load colliding; with the Inclusive scheme
// it degenerates to waiting for all stores, a useful lower-bound baseline.
type AlwaysColliding struct{}

// Lookup implements Predictor.
func (AlwaysColliding) Lookup(uint64) Prediction { return Prediction{Colliding: true} }

// Record implements Predictor.
func (AlwaysColliding) Record(uint64, bool, int) {}

// Name implements Predictor.
func (AlwaysColliding) Name() string { return "always-colliding" }

// Describe canonically identifies the predictor for memo keys.
func (AlwaysColliding) Describe() string { return "always-colliding" }

// NeverColliding predicts every load non-colliding; with the Inclusive
// scheme it reproduces the Opportunistic scheme.
type NeverColliding struct{}

// Lookup implements Predictor.
func (NeverColliding) Lookup(uint64) Prediction { return Prediction{} }

// Record implements Predictor.
func (NeverColliding) Record(uint64, bool, int) {}

// Name implements Predictor.
func (NeverColliding) Name() string { return "never-colliding" }

// Describe canonically identifies the predictor for memo keys.
func (NeverColliding) Describe() string { return "never-colliding" }
