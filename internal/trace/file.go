package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"loadsched/internal/uop"
)

// Binary trace-file format, for recording synthetic traces once and
// replaying them across tools (or importing externally produced uop
// streams). Both versions share the header:
//
//	header:  magic "LSUT" | u16 version | u16 reserved | u64 count
//
// Version 1 (legacy: still decoded, no longer written) is a flat array of
// fixed-size little-endian records:
//
//	record:  u64 seq | u64 ip | u64 addr | u64 storeID
//	         u8 kind | u8 dst | u8 src1 | u8 src2 | u8 size | u8 flags
//	flags:   bit0 taken, bit1 mispredicted
//
// Version 2 (default) stores the stream as packed chunks (see packed.go) of
// up to ChunkUops uops, each independently decodable and integrity-checked:
//
//	chunk:   u32 n | u32 payloadLen | payload | u32 crc32c(payload)
//	payload: packedChunk marshal form (columns + varint delta streams)
//
// Chunking is what buys bounded-memory replay: StreamReader decodes one
// chunk at a time through recycled buffers, so replaying a file costs
// O(ChunkUops) memory regardless of count. The per-chunk CRC-32C
// (Castagnoli, matching the result store's framing) localizes corruption
// to the chunk that suffered it.
//
// Uop Seq values must be strictly increasing within a file, and the reader
// rejects violations. The writer numbers uops by stream position, and no
// decoded uop.UOp carries the value: a uop's place in the stream is its
// position. The reader likewise rejects register numbers at or beyond
// uop.MaxArchRegs, the synthetic ISA's register file, IPs or addresses
// that need more than 32 bits, and access sizes other than 0, 1,
// 2, 4 and 8, which a uop's op byte has no code for.
//
// StoreIDs are in the format, but no decoded uop carries one either: the
// engine numbers stores by rank at rename, and the open-time scan accepts a
// file only if its ids say the same. The k-th STA must carry StoreID k, the
// next store half after it must be its STD, carrying the same id, and every
// other uop must carry 0. WriteTrace numbers them so. A file may end on an
// STA whose STD it cut off; replay then treats that STA as the end of the
// file, since a store without its data half would never complete.

const (
	fileMagic     = "LSUT"
	fileVersionV1 = 1
	fileVersionV2 = 2
	recordSize    = 8*4 + 6 // v1 record
	frameSize     = 8       // v2 chunk frame: u32 n | u32 payloadLen
)

var fileCRC = crc32.MakeTable(crc32.Castagnoli)

// maxChunkPayload bounds an n-uop chunk payload: six byte columns plus
// four delta streams of ≤10-byte varints plus bases and length prefixes.
func maxChunkPayload(n int) int { return 46*n + 128 }

func writeHeader(w io.Writer, version uint16, count uint64) error {
	var hdr [16]byte
	copy(hdr[0:4], fileMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], version)
	binary.LittleEndian.PutUint64(hdr[8:16], count)
	_, err := w.Write(hdr[:])
	return err
}

// WriteTrace serializes n uops from src to w in the current (v2, chunked)
// format, numbering them 0..n-1 by stream position and their stores by
// rank (see storeID).
func WriteTrace(w io.Writer, src Source, n int) error {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, fileVersionV2, uint64(n)); err != nil {
		return err
	}
	var e chunkEncoder
	var payload []byte
	var frame [frameSize]byte
	var crc [4]byte
	var stas int64
	for done := 0; done < n; {
		m := ChunkUops
		if n-done < m {
			m = n - done
		}
		e.begin()
		for i := 0; i < m; i++ {
			u := src.Next()
			e.add(&u, int64(done+i), storeID(&stas, u.Kind()))
		}
		payload = e.seal().marshal(payload[:0])
		binary.LittleEndian.PutUint32(frame[0:4], uint32(m))
		binary.LittleEndian.PutUint32(frame[4:8], uint32(len(payload)))
		binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload, fileCRC))
		if _, err := bw.Write(frame[:]); err != nil {
			return err
		}
		if _, err := bw.Write(payload); err != nil {
			return err
		}
		if _, err := bw.Write(crc[:]); err != nil {
			return err
		}
		done += m
	}
	return bw.Flush()
}

// storeID returns the StoreID a file records for a uop of kind k: the k-th
// STA of a stream and the STD after it carry k, every other uop 0. *stas
// counts the STAs so far.
func storeID(stas *int64, k uop.Kind) int64 {
	switch k {
	case uop.STA:
		*stas++
		return *stas
	case uop.STD:
		return *stas
	}
	return 0
}

// Source is the uop supplier interface (satisfied by *Generator,
// *StreamReader and *Cursor).
type Source interface {
	Next() uop.UOp
}

// WriteTraceFile records n uops of a profile's trace into path (v2 format).
func WriteTraceFile(path string, p Profile, n int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteTrace(f, New(p), n); err != nil {
		return err
	}
	return f.Sync()
}

func parseHeader(hdr [16]byte) (version uint16, count uint64, err error) {
	if string(hdr[0:4]) != fileMagic {
		return 0, 0, fmt.Errorf("trace: bad magic %q", hdr[0:4])
	}
	version = binary.LittleEndian.Uint16(hdr[4:6])
	if version != fileVersionV1 && version != fileVersionV2 {
		return 0, 0, fmt.Errorf("trace: unsupported version %d", version)
	}
	count = binary.LittleEndian.Uint64(hdr[8:16])
	const maxCount = 1 << 31
	if count == 0 || count > maxCount {
		return 0, 0, fmt.Errorf("trace: implausible record count %d", count)
	}
	return version, count, nil
}

// decodeV1Record decodes rec, the file's record number n, into slot i of v:
// the uop, and the Seq and StoreID the view keeps beside it. It fails,
// naming the record, when the kind is unknown, the access size has no code
// in the uop's op byte, or the IP or address needs more than 32 bits.
func (v *ChunkView) decodeV1Record(i int, n int64, rec *[recordSize]byte) error {
	kind, size := uop.Kind(rec[32]), rec[36]
	if int(kind) >= uop.NumKinds {
		return fmt.Errorf("trace: record %d has invalid kind %d", n, kind)
	}
	if !uop.SizeCoded(size) {
		return fmt.Errorf("trace: record %d has access size %d, which has no code", n, size)
	}
	ip, addr := binary.LittleEndian.Uint64(rec[8:16]), binary.LittleEndian.Uint64(rec[16:24])
	if ip > math.MaxUint32 || addr > math.MaxUint32 {
		return fmt.Errorf("trace: record %d has an ip %#x or address %#x beyond 32 bits", n, ip, addr)
	}
	v.us[i] = uop.UOp{
		IP:   uint32(ip),
		Addr: uint32(addr),
		Op:   uop.NewOp(kind, size).WithBranch(rec[37]&1 != 0, rec[37]&2 != 0),
		Dst:  uop.Reg(rec[33]),
		Src1: uop.Reg(rec[34]),
		Src2: uop.Reg(rec[35]),
	}
	v.seqs[i] = int64(binary.LittleEndian.Uint64(rec[0:8]))
	v.sids[i] = int64(binary.LittleEndian.Uint64(rec[24:32]))
	return nil
}

// readChunkFrame reads and verifies one v2 chunk (frame, payload, CRC) from
// r into the caller's recycled payload buffer, then unmarshals and decodes
// it through c into v. first is the file record number of the chunk's first
// uop and remaining caps the accepted population; the returned n is the
// chunk's uop count.
func readChunkFrame(r io.Reader, payload *[]byte, c *packedChunk, v *ChunkView, first int64, remaining uint64) (int, error) {
	var frame [frameSize]byte
	if _, err := io.ReadFull(r, frame[:]); err != nil {
		return 0, fmt.Errorf("truncated frame: %w", err)
	}
	n := binary.LittleEndian.Uint32(frame[0:4])
	plen := binary.LittleEndian.Uint32(frame[4:8])
	if n == 0 || n > ChunkUops {
		return 0, fmt.Errorf("population %d out of range (1..%d)", n, ChunkUops)
	}
	if uint64(n) > remaining {
		return 0, fmt.Errorf("population %d exceeds the %d uops the header still promises", n, remaining)
	}
	if int(plen) > maxChunkPayload(int(n)) {
		return 0, fmt.Errorf("payload length %d implausible for %d uops", plen, n)
	}
	if cap(*payload) < int(plen)+4 {
		*payload = make([]byte, plen+4)
	}
	buf := (*payload)[:plen+4]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, fmt.Errorf("truncated payload: %w", err)
	}
	body, sum := buf[:plen], binary.LittleEndian.Uint32(buf[plen:])
	if got := crc32.Checksum(body, fileCRC); got != sum {
		return 0, fmt.Errorf("crc mismatch (stored %#x, computed %#x)", sum, got)
	}
	if err := unmarshalChunk(body, c, ChunkUops); err != nil {
		return 0, err
	}
	if c.n != int(n) {
		return 0, fmt.Errorf("frame population %d disagrees with payload population %d", n, c.n)
	}
	if err := c.decode(v, first); err != nil {
		return 0, err
	}
	return int(n), nil
}

// StreamReader replays a recorded trace in constant memory: one decoded
// chunk is resident at a time, recycled through a single payload buffer
// and view, so replaying a billion-uop file costs the same RSS as a
// thousand-uop one. Construction validates the whole file — structure,
// CRCs, kinds, access sizes, registers, 32-bit IPs and addresses, Seq
// monotonicity and store numbering — in one bounded-memory pass, so Next
// (which has no error to return under the Source contract) can only fail
// on an I/O fault, which panics. Next wraps around at the end of a pass, so the
// reader satisfies the engine's unbounded Source contract. Not safe for
// concurrent use.
type StreamReader struct {
	rs        io.ReadSeeker
	br        *bufio.Reader // over rs; reset by rewind
	closer    io.Closer
	version   uint16
	count     int64
	dataStart int64
	// pass is how many uops one replay pass holds: count, or the position
	// of a final STA whose STD the file cut off. Fixed by the open-time
	// scan.
	pass int64

	// Recycled chunk ring: payload and pc back the current decoded view for
	// v2; v1 records are read straight into view's owned columns.
	payload []byte
	pc      packedChunk
	view    ChunkView
	viewPos int

	passUops int64 // uops consumed from the file this pass

	// Metadata collected by the open-time scan (for trace info), kinds
	// counting the file's records by kind.
	chunks       int64
	payloadBytes int64
	kinds        [uop.NumKinds]int64
}

// NewStreamReader opens a streaming replay over rs (either format
// version). rs must remain valid for the reader's lifetime.
func NewStreamReader(rs io.ReadSeeker) (*StreamReader, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(rs, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: short header: %w", err)
	}
	version, count, err := parseHeader(hdr)
	if err != nil {
		return nil, err
	}
	r := &StreamReader{rs: rs, br: bufio.NewReader(rs), version: version, count: int64(count), dataStart: 16}
	if err := r.scan(); err != nil {
		return nil, err
	}
	if err := r.rewind(); err != nil {
		return nil, err
	}
	return r, nil
}

// StreamTraceFile opens path for constant-memory replay. Close releases
// the file handle.
func StreamTraceFile(path string) (*StreamReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := NewStreamReader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	r.closer = f
	return r, nil
}

// scan is the open-time validation pass: it streams every chunk through
// the recycled buffers exactly as replay will, verifying structure, CRCs,
// kinds, access sizes, registers, Seq monotonicity and store numbering, and
// fixes the replay pass and the metadata trace info reports. Decoding a
// chunk checks kinds, access sizes, IPs and addresses, since the op byte
// has no room for a kind or size it cannot name.
func (r *StreamReader) scan() error {
	var prevSeq, stas int64
	open := int64(-1) // position of an STA still awaiting its STD
	for total := int64(0); total < r.count; {
		n, err := r.readChunk(total)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			u, rec := r.view.UOp(i), total+int64(i)
			if u.Dst >= uop.MaxArchRegs || u.Src1 >= uop.MaxArchRegs || u.Src2 >= uop.MaxArchRegs {
				return fmt.Errorf("trace: record %d names a register beyond r%d", rec, uop.MaxArchRegs-1)
			}
			// The first record has no predecessor, so any Seq starts a
			// file, math.MinInt64 included.
			seq := r.view.seqs[i]
			if rec > 0 && seq <= prevSeq {
				return fmt.Errorf("trace: record %d breaks Seq monotonicity (%d after %d)", rec, seq, prevSeq)
			}
			prevSeq = seq
			// The engine numbers stores by rank and links an STD to the
			// STA before it; a file whose ids say otherwise is refused.
			sid, want := r.view.sids[i], int64(0)
			switch u.Kind() {
			case uop.STA:
				if open >= 0 {
					return fmt.Errorf("trace: record %d is an STA, but the STA at record %d has no STD yet", rec, open)
				}
				stas++
				want, open = stas, rec
			case uop.STD:
				if open < 0 {
					return fmt.Errorf("trace: record %d is an STD with no STA before it", rec)
				}
				want, open = stas, -1
			}
			if sid != want {
				return fmt.Errorf("trace: record %d (%s) carries StoreID %d, want %d", rec, u.Kind(), sid, want)
			}
			r.kinds[u.Kind()]++
		}
		total += int64(n)
		r.chunks++
	}
	r.pass = r.count
	if open >= 0 {
		// The file cut the last store between its halves: each pass ends
		// before that STA.
		if open == 0 {
			return fmt.Errorf("trace: record 0 is an STA whose STD the file cut off, which leaves nothing to replay")
		}
		r.pass = open
	}
	return nil
}

// readChunk loads the next chunk of the file into the recycled view. For
// v1 that is up to ChunkUops flat records; for v2 one framed chunk.
func (r *StreamReader) readChunk(consumed int64) (int, error) {
	if r.version == fileVersionV1 {
		n := r.count - consumed
		if n > ChunkUops {
			n = ChunkUops
		}
		us := r.view.grow(int(n))
		var rec [recordSize]byte
		for i := range us {
			if _, err := io.ReadFull(r.br, rec[:]); err != nil {
				return 0, fmt.Errorf("trace: truncated at record %d: %w", consumed+int64(i), err)
			}
			if err := r.view.decodeV1Record(i, consumed+int64(i), &rec); err != nil {
				return 0, err
			}
		}
		r.payloadBytes += n * recordSize
		return int(n), nil
	}
	n, err := readChunkFrame(r.br, &r.payload, &r.pc, &r.view, consumed, uint64(r.count-consumed))
	if err != nil {
		return 0, fmt.Errorf("trace: chunk at uop %d: %w", consumed, err)
	}
	r.payloadBytes += int64(r.pc.packedBytes())
	return n, nil
}

// rewind seeks back to the first chunk and resets the pass state.
func (r *StreamReader) rewind() error {
	if _, err := r.rs.Seek(r.dataStart, io.SeekStart); err != nil {
		return fmt.Errorf("trace: rewind: %w", err)
	}
	r.br.Reset(r.rs)
	r.passUops, r.viewPos = 0, 0
	r.view.us = nil
	return nil
}

// Uops reports the recorded length.
func (r *StreamReader) Uops() int64 { return r.count }

// Version reports the file's format version.
func (r *StreamReader) Version() int { return int(r.version) }

// Chunks reports how many v2 chunks the file holds (0 for v1).
func (r *StreamReader) Chunks() int64 {
	if r.version == fileVersionV1 {
		return 0
	}
	return r.chunks
}

// PayloadBytes reports the file's record payload size: v2 chunk payloads
// excluding framing, or v1 record bytes.
func (r *StreamReader) PayloadBytes() int64 { return r.payloadBytes }

// Close releases the underlying file when the reader owns one.
func (r *StreamReader) Close() error {
	if r.closer != nil {
		return r.closer.Close()
	}
	return nil
}

// Next implements Source, wrapping around at the end of each pass. The
// file was fully validated at open; an I/O fault mid-replay panics.
func (r *StreamReader) Next() uop.UOp {
	if r.viewPos == len(r.view.us) {
		r.nextChunk()
	}
	u := r.view.us[r.viewPos]
	r.viewPos++
	return u
}

func (r *StreamReader) nextChunk() {
	if r.passUops == r.pass {
		if err := r.rewind(); err != nil {
			panic(err.Error())
		}
	}
	n, err := r.readChunk(r.passUops)
	if err != nil {
		// The open-time scan proved the file well-formed; only an
		// environmental I/O failure lands here.
		panic(err.Error())
	}
	if rest := r.pass - r.passUops; int64(n) > rest {
		// The pass ends before a final STA whose STD the file cut off.
		n = int(rest)
		r.view.us = r.view.us[:n]
	}
	r.passUops += int64(n)
	r.viewPos = 0
}

// NextBatchRef returns the remainder of the current decoded chunk as a
// direct view, and the placeholders ooo.Source names (nil and 0). The view
// stays valid until the next call on this reader.
func (r *StreamReader) NextBatchRef() ([]uop.UOp, []uop.Dep, int64) {
	if r.viewPos == len(r.view.us) {
		r.nextChunk()
	}
	n := len(r.view.us)
	us := r.view.us[r.viewPos:n]
	r.viewPos = n
	return us, nil, 0
}

// SidecarBuildNanos reports 0: replay builds no dependence side-car, since
// the engine resolves producers at rename.
func (r *StreamReader) SidecarBuildNanos() int64 { return 0 }

// FileInfo summarizes a trace file for `loadsched trace info`.
type FileInfo struct {
	Version      int
	Uops         int64
	Chunks       int64 // v2 only; 0 for v1
	PayloadBytes int64 // v2 chunk payloads / v1 record bytes, sans framing
	FileBytes    int64
	KindCounts   [uop.NumKinds]int64
	// Pass is how many uops one replay pass holds: Uops, or one fewer
	// when the file cuts its last store between the STA and its STD.
	Pass int64
}

// BytesPerUop is the payload density — the headline the packed format is
// judged on.
func (fi *FileInfo) BytesPerUop() float64 {
	if fi.Uops == 0 {
		return 0
	}
	return float64(fi.PayloadBytes) / float64(fi.Uops)
}

// InspectTraceFile validates path and reports its shape without ever
// materializing the trace (constant memory, like StreamReader).
func InspectTraceFile(path string) (*FileInfo, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	r, err := StreamTraceFile(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return &FileInfo{
		Version:      r.Version(),
		Uops:         r.Uops(),
		Chunks:       r.Chunks(),
		PayloadBytes: r.PayloadBytes(),
		FileBytes:    st.Size(),
		KindCounts:   r.kinds,
		Pass:         r.pass,
	}, nil
}
