package runner

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"loadsched/internal/memdep"
	"loadsched/internal/ooo"
	"loadsched/internal/store"
	"loadsched/internal/trace"
)

// eachLeaf calls visit with the dotted name and value of every scalar leaf
// of the addressable struct v, recursing into nested structs. Pointer,
// interface and func fields are not leaves.
func eachLeaf(v reflect.Value, prefix string, visit func(name string, f reflect.Value)) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		name := prefix + v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Struct:
			eachLeaf(f, name+".", visit)
		case reflect.Pointer, reflect.Interface, reflect.Func:
		default:
			visit(name, f)
		}
	}
}

// bump changes the value of scalar leaf f in place.
func bump(f reflect.Value) {
	switch f.Kind() {
	case reflect.Bool:
		f.SetBool(!f.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f.SetInt(f.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		f.SetUint(f.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		f.SetFloat(f.Float() + 0.25)
	case reflect.String:
		f.SetString(f.String() + "x")
	}
}

// keyedConfig is a memoizable machine whose every scalar field is live in
// its key: a described custom policy makes PolicyKey count.
func keyedConfig() ooo.Config {
	cfg := ooo.DefaultConfig()
	cfg.Scheme = memdep.Exclusive
	cfg.CHT = memdep.NewFullCHT(2048, 4, 2, true)
	cfg.NewPolicy = func(d ooo.PolicyDeps) ooo.SpeculationPolicy { return nil }
	cfg.PolicyKey = "zoo/base"
	return cfg
}

func testKey(t *testing.T, cfg ooo.Config) Key {
	t.Helper()
	desc, ok := ConfigKey(cfg)
	if !ok {
		t.Fatal("config not memoizable")
	}
	return Key{Machine: desc, Profile: trace.Groups()[0].Traces[0], Uops: 15_000, Warmup: 3_000}
}

// TestConfigKeyCoversEveryLeaf: the key text carries no field names, so
// each scalar leaf of ooo.Config, nested ones included, must still move
// both the machine description and the store key.
func TestConfigKeyCoversEveryLeaf(t *testing.T) {
	base := keyedConfig()
	baseKey := testKey(t, base)
	baseStore := StoreKey(baseKey)
	leaves := 0
	cfg := base
	eachLeaf(reflect.ValueOf(&cfg).Elem(), "", func(name string, f reflect.Value) {
		leaves++
		cfg = base
		bump(f)
		k := testKey(t, cfg)
		if k.Machine == baseKey.Machine {
			t.Errorf("changing Config.%s leaves ConfigKey unchanged", name)
		}
		if StoreKey(k) == baseStore {
			t.Errorf("changing Config.%s leaves StoreKey unchanged", name)
		}
	})
	if leaves < 40 {
		t.Fatalf("visited only %d Config leaves", leaves)
	}
}

// TestStoreKeyCoversEveryLeaf does the same for the memo key: every field
// of trace.Profile, the machine description and both lengths.
func TestStoreKeyCoversEveryLeaf(t *testing.T) {
	base := testKey(t, keyedConfig())
	baseStore := StoreKey(base)
	// The memo cache renders the same key from its pieces.
	if mk := keyOf(base); string(mk.appendStoreKey(nil)) != baseStore {
		t.Errorf("memo key renders %q, StoreKey %q", mk.appendStoreKey(nil), baseStore)
	}
	leaves := 0
	k := base
	eachLeaf(reflect.ValueOf(&k).Elem(), "", func(name string, f reflect.Value) {
		leaves++
		k = base
		bump(f)
		if StoreKey(k) == baseStore {
			t.Errorf("changing Key.%s leaves StoreKey unchanged", name)
		}
	})
	if leaves < 25 {
		t.Fatalf("visited only %d Key leaves", leaves)
	}
	// Floats render as their exact bits: signed zeros are distinct machines.
	pos, neg := base, base
	pos.Profile.CallFrac, neg.Profile.CallFrac = 0, math.Copysign(0, -1)
	if StoreKey(pos) == StoreKey(neg) {
		t.Error("+0 and -0 CallFrac share a store key")
	}
	if !strings.HasPrefix(baseStore, storeKeyVersion+"|"+schemaFingerprint+"|") {
		t.Errorf("store key %q lacks the version and schema prefix", baseStore)
	}
	// A key longer than the stack array it is built in renders whole.
	long := base
	long.Profile.Name = strings.Repeat("n", 2*keyScratch)
	if !strings.Contains(StoreKey(long), `"`+long.Profile.Name+`" `) {
		t.Error("a store key longer than keyScratch lost its profile name")
	}
}

// TestStoreKeyText pins the store key's layout after its prefix byte for
// byte: Key's fields in order, the description quoted, the profile's
// fields in braces, floats as their bits. Stores written by every build
// since the v2 key layout hold keys of exactly this shape, so a change
// here makes all of them miss.
func TestStoreKeyText(t *testing.T) {
	k := Key{Machine: `m"\x`, Profile: trace.Profile{Name: "p", Seed: -7, CallFrac: 0.25, NumFuncs: 3}, Uops: 2, Warmup: 3}
	const zero = "0000000000000000"
	want := `{"m\"\\x" {"p" -7 3 0 0 0 3fd0000000000000 0 0 ` + strings.Repeat(zero+" ", 11) +
		`0 0 0 0 0 ` + zero + " " + zero + `} 2 3}`
	if got := strings.TrimPrefix(StoreKey(k), storeKeyPrefix); got != want {
		t.Fatalf("store key text\n got  %s\n want %s", got, want)
	}
}

// TestConfigKeyNamesEnums: enum fields render by name, so no two values
// share a key and reordering constants cannot remap stored machines.
func TestConfigKeyNamesEnums(t *testing.T) {
	seen := map[string]string{}
	check := func(label, name string, cfg ooo.Config) {
		t.Helper()
		k, ok := ConfigKey(cfg)
		if !ok {
			t.Fatalf("%s: not memoizable", label)
		}
		if !strings.Contains(k, " "+name+" ") {
			t.Errorf("%s: key %q does not name %q", label, k, name)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("%s and %s share key %q", label, prev, k)
		}
		seen[k] = label
	}
	for _, s := range append(memdep.Schemes(), memdep.Scheme(6), memdep.Scheme(7)) {
		cfg := ooo.DefaultConfig()
		cfg.Scheme = s
		check("scheme "+s.String(), s.String(), cfg)
	}
	for p := ooo.BankPolicy(1); p <= 7; p++ {
		cfg := ooo.DefaultConfig()
		cfg.BankPolicy = p
		check("bank policy "+p.String(), p.String(), cfg)
	}
}

// renderText renders the key text of any struct value.
func renderText(x any) (string, bool) {
	v := reflect.ValueOf(x)
	b, ok := appendText(nil, v, planOf(v.Type()))
	return string(b), ok
}

// TestKeyTextRefusesReferences: a pointer, func or interface field that a
// caller did not clear (ConfigKey clears the ones it knows) makes the value
// unrenderable instead of keying on an address.
func TestKeyTextRefusesReferences(t *testing.T) {
	type inner struct{ I any }
	type probe struct {
		N   int
		P   *int
		F   func()
		Sub inner
		S   string
	}
	one := 1
	if got, ok := renderText(probe{N: 3, S: `a"b\c`}); !ok || got != `{3 - - {-} "a\"b\\c"}` {
		t.Fatalf("all-nil probe renders %q, %v", got, ok)
	}
	for name, p := range map[string]probe{
		"pointer":          {P: &one},
		"func":             {F: func() {}},
		"nested interface": {Sub: inner{I: 1}},
	} {
		if got, ok := renderText(p); ok {
			t.Errorf("non-nil %s rendered as %q", name, got)
		}
	}
}

// distinctStats sets every counter of a Stats to a different value with
// high bits set, negative for the signed ones, and counts them.
func distinctStats() (ooo.Stats, int) {
	var st ooo.Stats
	n := 0
	eachLeaf(reflect.ValueOf(&st).Elem(), "", func(_ string, f reflect.Value) {
		n++
		if f.Kind() == reflect.Int64 {
			f.SetInt(-int64(n)<<40 - int64(n))
		} else {
			f.SetUint(1<<63 | uint64(n)<<32 | uint64(n))
		}
	})
	return st, n
}

// TestStatsPayloadRoundTrip: a Stats with a distinct value in every field
// survives encode/decode, one little-endian word per counter, laid out
// exactly as encoding/binary lays out the struct, so stores written
// through binary.Write keep answering.
func TestStatsPayloadRoundTrip(t *testing.T) {
	want, n := distinctStats()
	payload := encodeStats(&want)
	if len(payload) != 8*n {
		t.Fatalf("payload is %d bytes for %d counters", len(payload), n)
	}
	if got := binary.LittleEndian.Uint64(payload); got != uint64(want.Cycles) {
		t.Fatalf("first word %#x, want Cycles %#x", got, uint64(want.Cycles))
	}
	var oracle bytes.Buffer
	if err := binary.Write(&oracle, binary.LittleEndian, &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, oracle.Bytes()) {
		t.Fatalf("payload differs from binary.Write's layout:\n got  %x\n want %x", payload, oracle.Bytes())
	}
	var got ooo.Stats
	if !decodeStats(payload, &got) || got != want {
		t.Fatalf("round trip gave %+v, want %+v", got, want)
	}
}

// TestDiskPayloadWrongLengthRecomputes: a well-framed entry whose payload
// is not exactly one word per counter is a miss that recomputes and
// appends a good frame, never a decode of the wrong fields. The bad frame
// stays on disk, and the appended one wins at every later Open, so a
// restart does not recompute the key again.
func TestDiskPayloadWrongLengthRecomputes(t *testing.T) {
	want, _ := distinctStats()
	key := testKey(t, keyedConfig())
	k := StoreKey(key)
	n := len(encodeStats(&want))
	for _, size := range []int{0, n - 1, n + 1, n + 8} {
		dir := t.TempDir()
		writeSegment(t, dir, storeEntry(t, k, bytes.Repeat([]byte{0xa5}, size)))
		st, _ := store.Open(dir)
		c := NewCache()
		c.SetStore(st)
		var calls atomic.Int32
		got, how := c.do(keyOf(key), func() ooo.Stats { calls.Add(1); return want })
		if got != want || how != computed || calls.Load() != 1 {
			t.Fatalf("payload of %d bytes: outcome %d after %d computes", size, how, calls.Load())
		}
		if sc := st.Counters(); sc.Writes != 1 {
			t.Fatalf("payload of %d bytes: %d appends, want 1", size, sc.Writes)
		}
		for restart := 0; restart < 2; restart++ {
			st, _ = store.Open(dir)
			c = NewCache()
			c.SetStore(st)
			if got, how := c.do(keyOf(key), func() ooo.Stats { t.Error("recomputed a rewritten entry"); return want }); got != want || how != diskHit {
				t.Fatalf("payload of %d bytes: restart %d gave outcome %d", size, restart, how)
			}
		}
	}
}

// TestConfigKeyDiskGetAllocs pins the allocation count of a warm-store
// lookup for one job of a machine whose keys NewMachine derived once and
// whose profile text its Run unit rendered: the job's store key and the
// read. The machine's CHT describes itself without fmt, whose pooled
// printers make counts vary under the race detector.
func TestConfigKeyDiskGetAllocs(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(func() ooo.Config {
		cfg := ooo.DefaultConfig()
		cfg.Scheme = memdep.Inclusive
		cfg.CHT = memdep.AlwaysColliding{}
		return cfg
	}, 3_000)
	j := Job{Machine: m, Profile: &trace.Groups()[0].Traces[0], Uops: 15_000}
	want, _ := distinctStats()
	desc, _ := ConfigKey(m.Config())
	diskPut(st, StoreKey(Key{Machine: desc, Profile: *j.Profile, Uops: j.Uops, Warmup: 3_000}), &want)
	if st, err = store.Open(dir); err != nil {
		t.Fatal(err)
	}
	var got ooo.Stats
	prof := profileText(j.Profile)
	allocs := testing.AllocsPerRun(100, func() {
		var scratch [keyScratch]byte
		k := memoKey{head: m.head, prof: prof, uops: j.Uops, warmup: m.warmup}
		if !diskGet(st, k.appendStoreKey(scratch[:0]), &got) {
			t.Fatal("warm entry missed")
		}
	})
	if got != want {
		t.Fatalf("disk hit gave %+v", got)
	}
	// None: the store key renders on the stack, and the payload is copied
	// into a stack buffer and decoded there.
	if allocs > 0 {
		t.Fatalf("job key + diskGet made %.0f allocations, want none", allocs)
	}
}

// FuzzStoreEntry feeds arbitrary bytes to the cache as a store segment
// for a fixed key. The only allowed outcomes are a disk hit whose
// statistics re-encode to a frame the segment holds, or a miss that
// computes once and appends one frame, which a fresh Open reads back as a
// hit; panics and store write errors fail.
func FuzzStoreEntry(f *testing.F) {
	key := Key{Machine: "fuzz", Profile: trace.Profile{Name: "fuzz", Seed: 1}, Uops: 100, Warmup: 10}
	k := StoreKey(key)
	want, _ := distinctStats()
	valid := storeEntry(f, k, encodeStats(&want))
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	crcFlipped := bytes.Clone(valid)
	crcFlipped[12] ^= 0x01
	f.Add(crcFlipped)
	f.Add(storeEntry(f, StoreKey(Key{Machine: "other"}), encodeStats(&want)))
	v1, err := json.Marshal(want)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(storeEntry(f, k, v1))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		writeSegment(t, dir, data)
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCache()
		c.SetStore(st)
		calls := 0
		got, how := c.do(keyOf(key), func() ooo.Stats { calls++; return want })
		switch how {
		case diskHit:
			if calls != 0 {
				t.Fatalf("disk hit also computed %d times", calls)
			}
			if again := storeEntry(t, k, encodeStats(&got)); !bytes.Contains(data, again) {
				t.Fatalf("disk hit's stats re-encode to a frame the segment does not hold")
			}
		case computed:
			if calls != 1 || got != want {
				t.Fatalf("miss computed %d times, got %+v", calls, got)
			}
			if sc := st.Counters(); sc.Writes != 1 || sc.WriteErrors != 0 {
				t.Fatalf("miss left store counters %+v, want one clean append", sc)
			}
			fresh, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			var back ooo.Stats
			if !diskGet(fresh, []byte(k), &back) || back != want {
				t.Fatal("appended frame does not read back after a fresh Open")
			}
		default:
			t.Fatalf("fresh cache reported outcome %d", how)
		}
	})
}

// storeEntry returns the segment a store writes for one Put of key and
// payload: that one frame.
func storeEntry(tb testing.TB, key string, payload []byte) []byte {
	tb.Helper()
	dir := tb.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	if err := st.Put(key, payload); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(onlySegment(tb, dir))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// onlySegment returns the path of the one segment file in a store
// directory.
func onlySegment(tb testing.TB, dir string) string {
	tb.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.lsr"))
	if err != nil || len(segs) != 1 {
		tb.Fatalf("store directory holds segments %v (%v), want exactly one", segs, err)
	}
	return segs[0]
}

// writeSegment writes data into dir as a segment that sorts before any
// segment a store creates.
func writeSegment(tb testing.TB, dir string, data []byte) {
	tb.Helper()
	if err := os.WriteFile(filepath.Join(dir, "seg-00000000000000000000-test.lsr"), data, 0o644); err != nil {
		tb.Fatal(err)
	}
}
