package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/maphash"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, payload := "machine|trace|uops=100", []byte(`{"Cycles":42}`)
	if _, ok := s.Get(key); ok {
		t.Fatal("Get on empty store reported a hit")
	}
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, payload)
	}
	c := s.Counters()
	if c.Hits != 1 || c.Misses != 1 || c.Writes != 1 || c.Corrupt != 0 {
		t.Fatalf("counters = %+v; want 1 hit, 1 miss, 1 write, 0 corrupt", c)
	}
	// Get hands out a copy: the caller may scribble on it.
	got[0] = 'X'
	if again, _ := s.Get(key); !bytes.Equal(again, payload) {
		t.Fatalf("Get after mutating a returned payload = %q", again)
	}
}

func TestEmptyPayloadAndReopen(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	if err := s.Put("k", nil); err != nil {
		t.Fatal(err)
	}
	// A different Store over the same directory sees the entry: persistence
	// is the whole point.
	s2, _ := Open(dir)
	got, ok := s2.Get("k")
	if !ok || len(got) != 0 {
		t.Fatalf("reopened Get = %q, %v; want empty payload, true", got, ok)
	}
}

func TestDistinctKeysDoNotAlias(t *testing.T) {
	s, _ := Open(t.TempDir())
	if err := s.Put("a", []byte("payload-a")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("b"); ok {
		t.Fatal("key b hit key a's entry")
	}
	got, ok := s.Get("a")
	if !ok || string(got) != "payload-a" {
		t.Fatalf("Get(a) = %q, %v", got, ok)
	}
}

// segments lists the segment files in dir, in load order.
func segments(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.lsr"))
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// TestCorruptEntriesDegradeToMisses damages the last frame of a segment in
// each way the disk can. A complete frame that fails its magic or checksum
// is counted as corrupt; a tail shorter than its header announces is not.
// Either way the key is a miss, never wrong data or a crash, the frame
// before the damage still hits, nothing is deleted, and a Put heals the key
// for the next Open.
func TestCorruptEntriesDegradeToMisses(t *testing.T) {
	cases := []struct {
		name    string
		corrupt int64
		// mutate damages seg, whose last frame starts at offset at.
		mutate func(seg []byte, at int) []byte
	}{
		{"truncated header", 0, func(d []byte, at int) []byte { return d[:at+headerSize-2] }},
		{"truncated payload", 0, func(d []byte, at int) []byte { return d[:len(d)-3] }},
		{"empty file", 0, func(d []byte, at int) []byte { return nil }},
		{"bad magic", 1, func(d []byte, at int) []byte { d[at] = 'X'; return d }},
		{"payload bit flip", 1, func(d []byte, at int) []byte { d[len(d)-1] ^= 0x40; return d }},
		{"key bit flip", 1, func(d []byte, at int) []byte { d[at+headerSize] ^= 0x01; return d }},
		{"length overflow", 0, func(d []byte, at int) []byte { d[at+8] = 0xff; return d }},
		{"trailing garbage", 0, func(d []byte, at int) []byte {
			return append(d[:at], bytes.Repeat([]byte{0xaa}, len(d)-at)...)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, _ := Open(dir)
			key, payload := "the-key", []byte("the-payload")
			if err := s.Put("before", []byte("intact")); err != nil {
				t.Fatal(err)
			}
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			seg := segments(t, dir)[0]
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			at := len(data) - len(encodeFrame(key, payload))
			damaged := tc.mutate(data, at)
			if err := os.WriteFile(seg, damaged, 0o644); err != nil {
				t.Fatal(err)
			}

			s2, _ := Open(dir)
			if got, ok := s2.Get(key); ok {
				t.Fatalf("damaged frame served as a hit: %q", got)
			}
			if c := s2.Counters(); c.Corrupt != tc.corrupt || c.Misses != 1 {
				t.Fatalf("counters = %+v; want %d corrupt, 1 miss", c, tc.corrupt)
			}
			if len(damaged) >= at {
				if got, ok := s2.Get("before"); !ok || string(got) != "intact" {
					t.Fatalf("frame before the damage: Get = %q, %v", got, ok)
				}
			}
			// The miss ends in recompute-and-append.
			if err := s2.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			if got, ok := s2.Get(key); !ok || !bytes.Equal(got, payload) {
				t.Fatalf("own write after damage: Get = %q, %v", got, ok)
			}
			s3, _ := Open(dir)
			if got, ok := s3.Get(key); !ok || !bytes.Equal(got, payload) {
				t.Fatalf("fresh Open after the rewrite: Get = %q, %v", got, ok)
			}
			if now, err := os.ReadFile(seg); err != nil || !bytes.Equal(now, damaged) {
				t.Fatalf("damaged segment changed or removed: err = %v", err)
			}
		})
	}
}

// TestForeignEntryRejected plants one key's frame under another key's
// index hash, as a hash collision would: the byte-for-byte key check must
// turn it into a miss.
func TestForeignEntryRejected(t *testing.T) {
	s, _ := Open(t.TempDir())
	if err := s.Put("other-key", []byte("other-payload")); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.index[maphash.String(s.seed, "key")] = s.index[maphash.String(s.seed, "other-key")]
	s.mu.Unlock()
	if got, ok := s.Get("key"); ok {
		t.Fatalf("foreign frame served as a hit: %q", got)
	}
	if c := s.Counters(); c.Misses != 1 || c.Hits != 0 {
		t.Fatalf("counters = %+v; want 1 miss", c)
	}
}

func TestConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	const (
		writers = 8
		keys    = 4
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				key := fmt.Sprintf("key-%d", k)
				payload := []byte(fmt.Sprintf("payload-%d", k))
				if err := s.Put(key, payload); err != nil {
					t.Errorf("Put(%s): %v", key, err)
				}
				if got, ok := s.Get(key); ok && string(got) != string(payload) {
					t.Errorf("Get(%s) observed torn entry %q", key, got)
				}
			}
		}()
	}
	wg.Wait()
	fresh, _ := Open(dir)
	for _, st := range []*Store{s, fresh} {
		for k := 0; k < keys; k++ {
			key := fmt.Sprintf("key-%d", k)
			got, ok := st.Get(key)
			if !ok || string(got) != fmt.Sprintf("payload-%d", k) {
				t.Fatalf("after concurrent writers, Get(%s) = %q, %v", key, got, ok)
			}
		}
	}
	if fresh.Counters().Corrupt != 0 {
		t.Fatalf("concurrent writers left corrupt frames: %+v", fresh.Counters())
	}
}

// TestConcurrentStores: two Stores, standing in for two processes, write
// one directory at once. Each appends only to its own segment and sees only
// what was on disk at its Open plus its own writes; a fresh Open sees every
// key from both.
func TestConcurrentStores(t *testing.T) {
	dir := t.TempDir()
	a, _ := Open(dir)
	b, _ := Open(dir)
	const keys = 32
	var wg sync.WaitGroup
	for i, st := range []*Store{a, b} {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := g; k < keys; k += 2 {
					if err := st.Put(fmt.Sprintf("s%d-k%d", i, k), []byte(fmt.Sprintf("s%d-p%d", i, k))); err != nil {
						t.Errorf("Put: %v", err)
					}
				}
			}()
		}
	}
	wg.Wait()
	if n := len(segments(t, dir)); n != 2 {
		t.Fatalf("two writing Stores left %d segments, want one each", n)
	}
	if _, ok := a.Get("s1-k0"); ok {
		t.Fatal("a Store saw another Store's write made after its Open")
	}
	fresh, _ := Open(dir)
	for i := 0; i < 2; i++ {
		for k := 0; k < keys; k++ {
			got, ok := fresh.Get(fmt.Sprintf("s%d-k%d", i, k))
			if !ok || string(got) != fmt.Sprintf("s%d-p%d", i, k) {
				t.Fatalf("fresh Open: Get(s%d-k%d) = %q, %v", i, k, got, ok)
			}
		}
	}
	if c := fresh.Counters(); c.Corrupt != 0 || fresh.Len() != 2*keys {
		t.Fatalf("fresh Open: %d keys, counters %+v; want %d keys, 0 corrupt", fresh.Len(), c, 2*keys)
	}
}

// TestSegmentNameOrderDecides: when two segments hold a frame for one key,
// the frame in the segment whose name sorts later wins, whatever order the
// files were written in.
func TestSegmentNameOrderDecides(t *testing.T) {
	dir := t.TempDir()
	later := filepath.Join(dir, "seg-00000000000000000002-b.lsr")
	earlier := filepath.Join(dir, "seg-00000000000000000001-a.lsr")
	for _, f := range []struct{ path, payload string }{{later, "new"}, {earlier, "old"}} {
		if err := os.WriteFile(f.path, encodeFrame("k", []byte(f.payload)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, _ := Open(dir)
	if got, ok := s.Get("k"); !ok || string(got) != "new" {
		t.Fatalf("Get = %q, %v; want the later segment's frame", got, ok)
	}
	// Within one segment, the later frame wins.
	seg := append(encodeFrame("j", []byte("first")), encodeFrame("j", []byte("second"))...)
	if err := os.WriteFile(later, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	s, _ = Open(dir)
	if got, ok := s.Get("j"); !ok || string(got) != "second" {
		t.Fatalf("Get = %q, %v; want the segment's last frame", got, ok)
	}
}

// TestPutAfterLostSegment: a Put that cannot append (here, the segment was
// removed underneath) fails and is counted, and the next Put starts a new
// segment instead of failing forever.
func TestPutAfterLostSegment(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	if err := s.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(segments(t, dir)[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", []byte("2")); err == nil {
		t.Fatal("Put into a removed segment succeeded")
	}
	if err := s.Put("c", []byte("3")); err != nil {
		t.Fatalf("Put after a failed one: %v", err)
	}
	if c := s.Counters(); c.Writes != 2 || c.WriteErrors != 1 {
		t.Fatalf("counters = %+v; want 2 writes, 1 write error", c)
	}
	fresh, _ := Open(dir)
	if got, ok := fresh.Get("c"); !ok || string(got) != "3" || fresh.Len() != 1 {
		t.Fatalf("fresh Open: Get(c) = %q, %v with %d keys; want only c", got, ok, fresh.Len())
	}
}

// TestOpenIgnoresOtherFiles: an entry of the earlier one-file-per-entry
// layout (<hh>/<sha256-hex>, one frame per file) is not read, so its key is
// a plain miss to recompute, and Open leaves it where it is.
func TestOpenIgnoresOtherFiles(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "ab", strings.Repeat("ab", 32))
	if err := os.MkdirAll(filepath.Dir(old), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(old, encodeFrame("k", []byte("p")), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok || s.Len() != 0 || s.Counters().Corrupt != 0 {
		t.Fatalf("old-layout entry loaded: %d keys, counters %+v", s.Len(), s.Counters())
	}
	if _, err := os.Stat(old); err != nil {
		t.Fatalf("old-layout entry removed: %v", err)
	}
}

func TestLenCountsEntries(t *testing.T) {
	s, _ := Open(t.TempDir())
	for i := 0; i < 5; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte("p")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put("k0", []byte("q")); err != nil {
		t.Fatal(err)
	}
	if n := s.Len(); n != 5 {
		t.Fatalf("Len = %d, want 5", n)
	}
}

func TestOpenRejectsUnusableDir(t *testing.T) {
	// A regular file where the store directory should be.
	dir := t.TempDir()
	path := filepath.Join(dir, "occupied")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("Open over a regular file succeeded")
	}
}

// TestGetAllocs: a warm hit allocates only the payload copy it returns.
func TestGetAllocs(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	key := strings.Repeat("k", 566)
	if err := s.Put(key, make([]byte, 272)); err != nil {
		t.Fatal(err)
	}
	s, _ = Open(dir)
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := s.Get(key); !ok {
			t.Fatal("warm key missed")
		}
	})
	if allocs != 1 {
		t.Fatalf("warm Get made %.0f allocations, want 1", allocs)
	}
}

// referenceFrames decodes a segment the slow way, for FuzzSegment: frame
// by frame until a tail shorter than its header announces, or until the
// first complete frame whose magic or checksum is wrong. A later frame for
// a key replaces an earlier one.
func referenceFrames(seg []byte) (frames map[string][]byte, corrupt int64) {
	frames = make(map[string][]byte)
	for rest := seg; len(rest) >= headerSize; {
		keyLen := uint64(binary.BigEndian.Uint32(rest[4:8]))
		payLen := uint64(binary.BigEndian.Uint32(rest[8:12]))
		if headerSize+keyLen+payLen > uint64(len(rest)) {
			break
		}
		body := rest[headerSize : headerSize+keyLen+payLen]
		if !bytes.Equal(rest[:4], magic[:]) || crc32.Checksum(body, castagnoli) != binary.BigEndian.Uint32(rest[12:16]) {
			corrupt = 1
			break
		}
		frames[string(body[:keyLen])] = body[keyLen:]
		rest = rest[headerSize+keyLen+payLen:]
	}
	return frames, corrupt
}

// FuzzSegment writes arbitrary bytes as one segment. Open must neither
// panic nor fail; every frame the reference decode finds must Get its
// exact payload; and a new Put must read back after a fresh Open.
func FuzzSegment(f *testing.F) {
	two := append(encodeFrame("a", []byte("payload-a")), encodeFrame("b", []byte("payload-b"))...)
	f.Add(two)
	f.Add(two[:len(two)-3])
	flipped := bytes.Clone(two)
	flipped[12] ^= 0x01
	f.Add(flipped)
	f.Add(append(encodeFrame("a", []byte("old")), encodeFrame("a", []byte("new"))...))
	f.Add(append(bytes.Clone(two), 0xaa))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-00000000000000000000-fuzz.lsr"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		want, corrupt := referenceFrames(data)
		for k, p := range want {
			if got, ok := s.Get(k); !ok || !bytes.Equal(got, p) {
				t.Fatalf("Get(%q) = %q, %v; want %q", k, got, ok, p)
			}
		}
		if c := s.Counters(); c.Corrupt != corrupt || s.Len() != len(want) {
			t.Fatalf("loaded %d keys, counters %+v; want %d keys, %d corrupt", s.Len(), c, len(want), corrupt)
		}
		if err := s.Put("a", []byte("fresh")); err != nil {
			t.Fatal(err)
		}
		s, err = Open(dir)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if got, ok := s.Get("a"); !ok || string(got) != "fresh" {
			t.Fatalf("Put then fresh Open: Get = %q, %v", got, ok)
		}
	})
}
