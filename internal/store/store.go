// Package store is a disk-backed result store: the persistent second level
// under the runner's in-process memo cache.
//
// Keys are arbitrary canonical strings (the runner uses the machine
// description plus the trace-profile identity). The store is a log of
// append-only segment files, <dir>/seg-<20-digit creation UnixNano>-<random>.lsr,
// each a run of frames: magic, key length, payload length, a CRC-32C over
// key and payload, then the key and payload bytes. Open reads every segment
// in name order, which is creation order, and indexes each valid frame in
// memory under a per-Store hash of its key; a later frame for a key
// replaces an earlier one. Get is then a lookup with no I/O that compares
// the stored key byte for byte, so a hash collision is a miss, never
// another key's payload.
//
// Each Store appends only to its own segment, created on its first Put, so
// no two writers, in this process or another, ever share a file. A Store
// sees what was on disk when it was opened plus its own writes; another
// live process's appends appear at the next Open, and meanwhile both may
// compute a shared key, with identical results by the caller's purity
// contract. Damage never surfaces as data or as an error: a complete frame
// that fails its magic or checksum ends its segment's load and is counted
// as Corrupt, a tail shorter than its header announces (a crash, a writer
// mid-append, or a damaged length) is skipped, and every key not loaded is
// a miss that the caller recomputes and appends again.
//
// The store never invalidates or deletes anything: a key is expected to name
// its value forever (the runner versions its keys, so schema changes orphan
// old entries as misses rather than misreading them). A Store holds every
// segment it loaded in memory, and files other than segments, such as
// entries of the earlier one-file-per-entry layout, are never read.
package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/maphash"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// magic identifies a store frame and its framing version. Bump the
// trailing digit if the frame layout ever changes.
var magic = [4]byte{'L', 'S', 'R', '1'}

// headerSize is the fixed frame prefix: magic, key length, payload length,
// CRC-32C of key+payload.
const headerSize = 4 + 4 + 4 + 4

// castagnoli is the CRC-32C table (the polynomial with hardware support).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Counters is a point-in-time snapshot of a store's observability counters.
// Every Get is exactly a hit or a miss.
type Counters struct {
	// Hits and Misses classify Get calls.
	Hits, Misses int64
	// Corrupt counts complete frames that Open rejected (bad magic or
	// checksum). Each ends its segment's load, so the keys it and the
	// frames after it held are misses.
	Corrupt int64
	// Writes counts frames appended; WriteErrors counts Put calls that
	// failed to persist (disk full, permissions).
	Writes, WriteErrors int64
}

// Store is an append-only segment log rooted at one directory, indexed in
// memory. It is safe for concurrent use, and any number of Stores, in any
// number of processes, may share the directory.
type Store struct {
	dir  string
	seed maphash.Seed

	mu sync.RWMutex
	// index maps the hash of a key to its latest whole frame. Frames are
	// slices of the segment buffers read at Open or of Put's own buffers,
	// never copied and never written once indexed.
	index map[uint64][]byte

	// putMu serializes Puts, so Gets never wait on file I/O under mu.
	putMu sync.Mutex
	seg   string // this Store's segment, under putMu; "" until created

	hits, misses, corrupt, writes, writeFails atomic.Int64
}

// Open creates (if needed) the directory dir and loads every segment in it.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: opening %s: %w", dir, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: opening %s: %w", dir, err)
	}
	s := &Store{dir: dir, seed: maphash.MakeSeed(), index: make(map[uint64][]byte)}
	// ReadDir sorts by name, and names sort by creation time.
	for _, e := range ents {
		name := e.Name()
		if !e.Type().IsRegular() || !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".lsr") {
			continue
		}
		// An unreadable segment loads nothing: its keys are misses.
		if data, err := readSegment(filepath.Join(dir, name)); err == nil {
			s.load(data)
		}
	}
	return s, nil
}

// readSegment reads a segment into one buffer of exactly its size at the
// time of the read. Bytes a live writer appends after that are left for the
// next Open; a frame it has only half written is a short tail.
func readSegment(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data := make([]byte, fi.Size())
	n, err := io.ReadFull(f, data)
	if err == io.ErrUnexpectedEOF {
		err = nil
	}
	return data[:n], err
}

// load indexes the frames of one segment in order. It runs before the
// Store is shared, so it takes no lock.
func (s *Store) load(seg []byte) {
	for len(seg) >= headerSize {
		n := uint64(headerSize) + uint64(binary.BigEndian.Uint32(seg[4:8])) + uint64(binary.BigEndian.Uint32(seg[8:12]))
		if n > uint64(len(seg)) {
			return // a short tail: a crash, a writer mid-append, or a damaged length
		}
		frame := seg[:n:n]
		if string(frame[:4]) != string(magic[:]) ||
			crc32.Checksum(frame[headerSize:], castagnoli) != binary.BigEndian.Uint32(frame[12:16]) {
			// The lengths that delimit the next frame are untrusted now.
			s.corrupt.Add(1)
			return
		}
		key, _ := splitFrame(frame)
		s.index[maphash.Bytes(s.seed, key)] = frame
		seg = seg[n:]
	}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Counters snapshots the store's observability counters.
func (s *Store) Counters() Counters {
	return Counters{
		Hits: s.hits.Load(), Misses: s.misses.Load(), Corrupt: s.corrupt.Load(),
		Writes: s.writes.Load(), WriteErrors: s.writeFails.Load(),
	}
}

// Get returns a copy of the payload stored for key. It does no I/O: it
// sees the frames loaded at Open plus this Store's own Puts. A key never
// written, lost to damage, or written since Open by another Store is a
// miss, as is a key whose hash slot holds a different key's frame.
func (s *Store) Get(key string) (payload []byte, ok bool) {
	h := maphash.String(s.seed, key)
	s.mu.RLock()
	frame := s.index[h]
	s.mu.RUnlock()
	if frame != nil {
		if k, p := splitFrame(frame); string(k) == key {
			s.hits.Add(1)
			return bytes.Clone(p), true
		}
	}
	s.misses.Add(1)
	return nil, false
}

// Put appends one frame for key to this Store's segment and indexes it, so
// later Gets on this Store see it and later Opens prefer it to any frame
// for key in this segment or an older one. The segment is created on the
// first Put and opened, written in one call and closed by each Put, so the
// Store holds no file between calls.
func (s *Store) Put(key string, payload []byte) error {
	frame := encodeFrame(key, payload)
	// Puts are serialized, so the index and the segment agree on which of
	// two frames for one key came last.
	s.putMu.Lock()
	err := s.append(frame)
	if err == nil {
		s.mu.Lock()
		s.index[maphash.String(s.seed, key)] = frame
		s.mu.Unlock()
	}
	s.putMu.Unlock()
	if err != nil {
		s.writeFails.Add(1)
		return fmt.Errorf("store: put: %w", err)
	}
	s.writes.Add(1)
	return nil
}

// append writes frame at the end of this Store's segment. After a failed
// open or write the next append starts a new segment, so a torn frame ends
// only the segment it tore and a segment removed underneath is replaced.
func (s *Store) append(frame []byte) error {
	f, err := s.openSegment()
	if err == nil {
		_, err = f.Write(frame)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		s.seg = ""
	}
	return err
}

// openSegment opens this Store's segment for appending, first creating it
// with O_EXCL under a fresh name so that no other writer can share it. A
// name clash (same nanosecond, same random suffix) fails that one Put; the
// next Put draws a new name.
func (s *Store) openSegment() (*os.File, error) {
	if s.seg != "" {
		return os.OpenFile(s.seg, os.O_WRONLY|os.O_APPEND, 0)
	}
	name := filepath.Join(s.dir, fmt.Sprintf("seg-%020d-%08x.lsr", time.Now().UnixNano(), rand.Uint32()))
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_APPEND|os.O_CREATE|os.O_EXCL, 0o644)
	if err == nil {
		s.seg = name
	}
	return f, err
}

// Len reports how many distinct keys this Store serves: those loaded at
// Open plus its own Puts.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// encodeFrame assembles one frame's bytes.
func encodeFrame(key string, payload []byte) []byte {
	buf := make([]byte, headerSize+len(key)+len(payload))
	copy(buf[0:4], magic[:])
	binary.BigEndian.PutUint32(buf[4:8], uint32(len(key)))
	binary.BigEndian.PutUint32(buf[8:12], uint32(len(payload)))
	copy(buf[headerSize:], key)
	copy(buf[headerSize+len(key):], payload)
	crc := crc32.Checksum(buf[headerSize:], castagnoli)
	binary.BigEndian.PutUint32(buf[12:16], crc)
	return buf
}

// splitFrame returns the key and payload of a whole, checked frame.
func splitFrame(frame []byte) (key, payload []byte) {
	k := headerSize + int(binary.BigEndian.Uint32(frame[4:8]))
	return frame[headerSize:k], frame[k:]
}
