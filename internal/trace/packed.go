package trace

import (
	"encoding/binary"
	"fmt"
	"math"

	"loadsched/internal/uop"
)

// Packed trace chunks: the v2 trace-file format (see file.go). A file
// stores its uop stream as a sequence of fixed-population chunks in
// structure-of-arrays form:
//
//   - kind/dst/src1/src2/size/flags: one byte column each (flags packs
//     Taken and Mispredicted bits plus presence bits for Addr/StoreID)
//   - IP: zigzag varint deltas, one per uop (IPs walk a small program, so
//     deltas are short)
//   - Addr: zigzag varint deltas between consecutive *nonzero* addresses —
//     only uops whose flag byte has pfHasAddr contribute, so Nop/ALU uops
//     don't thrash the delta context
//   - StoreID: likewise, only under pfHasStore (StoreIDs are dense per
//     store, so the common delta is 1 → one byte)
//   - Seq: implicit from position when the chunk is dense (WriteTrace
//     numbers uops by position, so its chunks always are); an explicit
//     delta stream otherwise
//
// No uop.UOp carries a Seq or a StoreID: the decoder hands both to the
// open-time scan in side columns, and the scan checks that Seq strictly
// increases and that the StoreIDs number the stores as the engine does at
// rename. IPs and addresses are 64-bit in the format and must fit 32 bits
// to decode. Synthetic traces pack to ~8 bytes/uop on disk, against 16
// for a flat uop.UOp. Each chunk also carries the absolute base values of
// its first uop, so chunks decode independently of one another; that
// independence is what lets the stream reader replay a file one recycled
// chunk at a time.
//
// A decoded chunk is a ChunkView: a flat []uop.UOp, so replay stays a
// plain slice read. In-process recordings (materialize.go) never pack:
// they hold each chunk once, flat, as the generator produced it.

const (
	chunkShift = 12
	// ChunkUops is the fixed population of a recording chunk and of a
	// full file chunk (the last chunk of a file may be shorter). Replay
	// cursors and the Batches adapter align to it.
	ChunkUops = 1 << chunkShift
)

// Flag-column bits. Bits 0 and 1 match the v1 file format's flag byte;
// bits 2 and 3 exist only in the packed form and mark which uops carry a
// nonzero Addr / StoreID (and thus consume a delta from the corresponding
// stream).
const (
	pfTaken        = 1 << 0
	pfMispredicted = 1 << 1
	pfHasAddr      = 1 << 2
	pfHasStore     = 1 << 3
)

// packedChunk is the durable form of up to ChunkUops consecutive uops.
type packedChunk struct {
	n     int
	dense bool // Seq values are baseSeq, baseSeq+1, ... (seqd empty)

	// Absolute values of the first uop's fields (baseAddr/baseStore: of the
	// first uop with the corresponding presence bit; 0 if none), so the
	// chunk decodes without any earlier chunk's context.
	baseSeq   int64
	baseIP    uint64
	baseAddr  uint64
	baseStore int64

	kinds, dsts, src1s, src2s, sizes, flags []byte

	ipd   []byte // zigzag varint deltas, n-1 entries (first uop is baseIP)
	addrd []byte // zigzag varint deltas between consecutive pfHasAddr uops
	sidd  []byte // zigzag varint deltas between consecutive pfHasStore uops
	seqd  []byte // zigzag varint deltas, n-1 entries; nil when dense
}

// packedBytes is the chunk's in-memory footprint in payload bytes — what
// "bytes per uop" measures.
func (c *packedChunk) packedBytes() int {
	return len(c.kinds) + len(c.dsts) + len(c.src1s) + len(c.src2s) +
		len(c.sizes) + len(c.flags) +
		len(c.ipd) + len(c.addrd) + len(c.sidd) + len(c.seqd)
}

// chunkEncoder packs a uop stream chunk by chunk. begin/add/seal; the
// encoder owns no chunk memory after seal. add takes each uop's file Seq
// and StoreID explicitly, since uops carry neither.
type chunkEncoder struct {
	c                 *packedChunk
	prevSeq           int64
	prevIP            uint64
	prevAddr          uint64
	prevStore         int64
	sawAddr, sawStore bool
}

func (e *chunkEncoder) begin() {
	e.c = &packedChunk{dense: true}
	e.sawAddr, e.sawStore = false, false
}

func (e *chunkEncoder) add(u *uop.UOp, seq, sid int64) {
	c := e.c
	ip, addr := uint64(u.IP), uint64(u.Addr)
	var f byte
	if u.Taken {
		f |= pfTaken
	}
	if u.Mispredicted {
		f |= pfMispredicted
	}
	if addr != 0 {
		f |= pfHasAddr
	}
	if sid != 0 {
		f |= pfHasStore
	}
	c.kinds = append(c.kinds, byte(u.Kind))
	c.dsts = append(c.dsts, byte(u.Dst))
	c.src1s = append(c.src1s, byte(u.Src1))
	c.src2s = append(c.src2s, byte(u.Src2))
	c.sizes = append(c.sizes, u.Size)
	c.flags = append(c.flags, f)
	if c.n == 0 {
		c.baseSeq, c.baseIP = seq, ip
	} else {
		c.seqd = appendZigzag(c.seqd, seq-e.prevSeq)
		c.ipd = appendZigzag(c.ipd, int64(ip-e.prevIP))
		if seq != c.baseSeq+int64(c.n) {
			c.dense = false
		}
	}
	e.prevSeq, e.prevIP = seq, ip
	if addr != 0 {
		if !e.sawAddr {
			c.baseAddr, e.sawAddr = addr, true
		} else {
			c.addrd = appendZigzag(c.addrd, int64(addr-e.prevAddr))
		}
		e.prevAddr = addr
	}
	if sid != 0 {
		if !e.sawStore {
			c.baseStore, e.sawStore = sid, true
		} else {
			c.sidd = appendZigzag(c.sidd, sid-e.prevStore)
		}
		e.prevStore = sid
	}
	c.n++
}

// seal finishes the chunk: a dense chunk drops its redundant seq stream.
func (e *chunkEncoder) seal() *packedChunk {
	c := e.c
	if c.dense {
		c.seqd = nil
	}
	e.c = nil
	return c
}

// ChunkView is one decoded chunk: a flat []uop.UOp ready for the replay
// hot path. Replay is a straight slice read — a per-uop column gather
// measures ~9× slower than copying a flat record — so a reader pays the
// gather once per chunk and the consumer touches only the flat form.
// Readers recycle one view through buf. seqs and sids hold the file's Seq
// and StoreID of each decoded uop, which only validation reads.
type ChunkView struct {
	us   []uop.UOp // decoded uops, buf[:n]
	buf  []uop.UOp // backing storage, reused across decodes
	seqs []int64   // file Seq of us[i], len n
	sids []int64   // file StoreID of us[i], len n
}

// Len reports the view's uop population.
func (v *ChunkView) Len() int { return len(v.us) }

// UOp returns uop i of the view. i must be in [0, Len()).
func (v *ChunkView) UOp(i int) uop.UOp { return v.us[i] }

// grow readies the view's backing storage for n uops and their side
// columns.
func (v *ChunkView) grow(n int) []uop.UOp {
	if cap(v.buf) < n {
		v.buf = make([]uop.UOp, n)
		v.seqs = make([]int64, n)
		v.sids = make([]int64, n)
	}
	v.us = v.buf[:n]
	v.seqs = v.seqs[:n]
	v.sids = v.sids[:n]
	return v.us
}

// decode expands c into v, reusing v's backing storage when it is large
// enough. Nothing in the decoded view aliases c or the payload it was
// unmarshaled from, so callers may recycle payload buffers immediately.
func (c *packedChunk) decode(v *ChunkView) error {
	n := c.n
	us := v.grow(n)
	kinds := c.kinds[:n]
	dsts := c.dsts[:n]
	src1s := c.src1s[:n]
	src2s := c.src2s[:n]
	sizes := c.sizes[:n]
	flags := c.flags[:n]
	for i := range us {
		f := flags[i]
		us[i] = uop.UOp{
			Kind:         uop.Kind(kinds[i]),
			Dst:          uop.Reg(dsts[i]),
			Src1:         uop.Reg(src1s[i]),
			Src2:         uop.Reg(src2s[i]),
			Size:         sizes[i],
			Taken:        f&pfTaken != 0,
			Mispredicted: f&pfMispredicted != 0,
		}
	}

	ip := c.baseIP
	p := c.ipd
	for i := 0; i < n; i++ {
		if i > 0 {
			d, k := readZigzag(p)
			if k <= 0 {
				return fmt.Errorf("trace: chunk ip stream truncated at uop %d", i)
			}
			p = p[k:]
			ip += uint64(d)
		}
		if ip > math.MaxUint32 {
			return fmt.Errorf("trace: chunk uop %d has ip %#x beyond 32 bits", i, ip)
		}
		us[i].IP = uint32(ip)
	}
	if len(p) != 0 {
		return fmt.Errorf("trace: chunk ip stream has %d trailing bytes", len(p))
	}

	seqs := v.seqs
	if c.dense {
		for i := range seqs {
			seqs[i] = c.baseSeq + int64(i)
		}
	} else {
		seq := c.baseSeq
		seqs[0] = seq
		p = c.seqd
		for i := 1; i < n; i++ {
			d, k := readZigzag(p)
			if k <= 0 {
				return fmt.Errorf("trace: chunk seq stream truncated at uop %d", i)
			}
			p = p[k:]
			seq += d
			seqs[i] = seq
		}
		if len(p) != 0 {
			return fmt.Errorf("trace: chunk seq stream has %d trailing bytes", len(p))
		}
	}

	addr, first := c.baseAddr, true
	p = c.addrd
	for i := 0; i < n; i++ {
		if flags[i]&pfHasAddr == 0 {
			continue
		}
		if first {
			first = false
		} else {
			d, k := readZigzag(p)
			if k <= 0 {
				return fmt.Errorf("trace: chunk addr stream truncated at uop %d", i)
			}
			p = p[k:]
			addr += uint64(d)
		}
		if addr == 0 {
			return fmt.Errorf("trace: chunk addr stream decodes to 0 under a presence flag at uop %d", i)
		}
		if addr > math.MaxUint32 {
			return fmt.Errorf("trace: chunk uop %d has address %#x beyond 32 bits", i, addr)
		}
		us[i].Addr = uint32(addr)
	}
	if len(p) != 0 {
		return fmt.Errorf("trace: chunk addr stream has %d trailing bytes", len(p))
	}

	sids := v.sids
	sid, first := c.baseStore, true
	p = c.sidd
	for i := 0; i < n; i++ {
		if flags[i]&pfHasStore == 0 {
			sids[i] = 0
			continue
		}
		if first {
			first = false
		} else {
			d, k := readZigzag(p)
			if k <= 0 {
				return fmt.Errorf("trace: chunk store stream truncated at uop %d", i)
			}
			p = p[k:]
			sid += d
		}
		if sid == 0 {
			return fmt.Errorf("trace: chunk store stream decodes to 0 under a presence flag at uop %d", i)
		}
		sids[i] = sid
	}
	if len(p) != 0 {
		return fmt.Errorf("trace: chunk store stream has %d trailing bytes", len(p))
	}
	return nil
}

// marshal serializes the chunk as a file-v2 payload:
//
//	zigzag baseSeq | uvarint baseIP | uvarint baseAddr | zigzag baseStore
//	u8 chunkFlags (bit0 dense) | uvarint n
//	kinds[n] dsts[n] src1s[n] src2s[n] sizes[n] flags[n]
//	uvarint len(ipd)   | ipd
//	uvarint len(addrd) | addrd
//	uvarint len(sidd)  | sidd
//	uvarint len(seqd)  | seqd          (only when not dense)
func (c *packedChunk) marshal(dst []byte) []byte {
	dst = appendZigzag(dst, c.baseSeq)
	dst = binary.AppendUvarint(dst, c.baseIP)
	dst = binary.AppendUvarint(dst, c.baseAddr)
	dst = appendZigzag(dst, c.baseStore)
	var cf byte
	if c.dense {
		cf |= 1
	}
	dst = append(dst, cf)
	dst = binary.AppendUvarint(dst, uint64(c.n))
	dst = append(dst, c.kinds...)
	dst = append(dst, c.dsts...)
	dst = append(dst, c.src1s...)
	dst = append(dst, c.src2s...)
	dst = append(dst, c.sizes...)
	dst = append(dst, c.flags...)
	for _, s := range [][]byte{c.ipd, c.addrd, c.sidd} {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	if !c.dense {
		dst = binary.AppendUvarint(dst, uint64(len(c.seqd)))
		dst = append(dst, c.seqd...)
	}
	return dst
}

// unmarshalChunk parses a file-v2 payload into c. The chunk's byte columns
// and delta streams alias payload. maxN bounds the accepted population
// (ChunkUops for files).
func unmarshalChunk(payload []byte, c *packedChunk, maxN int) error {
	p := payload
	var err error
	if c.baseSeq, p, err = takeZigzag(p, "baseSeq"); err != nil {
		return err
	}
	if c.baseIP, p, err = takeUvarint(p, "baseIP"); err != nil {
		return err
	}
	if c.baseAddr, p, err = takeUvarint(p, "baseAddr"); err != nil {
		return err
	}
	if c.baseStore, p, err = takeZigzag(p, "baseStore"); err != nil {
		return err
	}
	if len(p) < 1 {
		return fmt.Errorf("trace: chunk payload truncated at flags")
	}
	cf := p[0]
	p = p[1:]
	if cf&^1 != 0 {
		return fmt.Errorf("trace: chunk has unknown flag bits %#x", cf)
	}
	c.dense = cf&1 != 0
	nu, p, err := takeUvarint(p, "n")
	if err != nil {
		return err
	}
	if nu == 0 || nu > uint64(maxN) {
		return fmt.Errorf("trace: chunk population %d out of range (1..%d)", nu, maxN)
	}
	n := int(nu)
	c.n = n
	if len(p) < 6*n {
		return fmt.Errorf("trace: chunk payload truncated in byte columns (%d < %d)", len(p), 6*n)
	}
	c.kinds, p = p[:n:n], p[n:]
	c.dsts, p = p[:n:n], p[n:]
	c.src1s, p = p[:n:n], p[n:]
	c.src2s, p = p[:n:n], p[n:]
	c.sizes, p = p[:n:n], p[n:]
	c.flags, p = p[:n:n], p[n:]
	for i := 0; i < n; i++ {
		if int(c.kinds[i]) >= uop.NumKinds {
			return fmt.Errorf("trace: chunk uop %d has invalid kind %d", i, c.kinds[i])
		}
		if c.flags[i]&^(pfTaken|pfMispredicted|pfHasAddr|pfHasStore) != 0 {
			return fmt.Errorf("trace: chunk uop %d has unknown flag bits %#x", i, c.flags[i])
		}
	}
	streams := []*[]byte{&c.ipd, &c.addrd, &c.sidd}
	c.seqd = nil
	if !c.dense {
		streams = append(streams, &c.seqd)
	}
	for _, s := range streams {
		lu, rest, err := takeUvarint(p, "stream length")
		if err != nil {
			return err
		}
		if lu > uint64(len(rest)) {
			return fmt.Errorf("trace: chunk stream length %d exceeds remaining payload %d", lu, len(rest))
		}
		*s, p = rest[:lu:lu], rest[lu:]
	}
	if len(p) != 0 {
		return fmt.Errorf("trace: chunk payload has %d trailing bytes", len(p))
	}
	return nil
}

// Varint helpers: unsigned little-endian base-128 via encoding/binary,
// zigzag-mapped for signed deltas.

func appendZigzag(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64(v)<<1^uint64(v>>63))
}

func readZigzag(b []byte) (int64, int) {
	u, k := binary.Uvarint(b)
	return int64(u>>1) ^ -int64(u&1), k
}

func takeUvarint(p []byte, what string) (uint64, []byte, error) {
	u, k := binary.Uvarint(p)
	if k <= 0 {
		return 0, nil, fmt.Errorf("trace: chunk payload truncated at %s", what)
	}
	return u, p[k:], nil
}

func takeZigzag(p []byte, what string) (int64, []byte, error) {
	u, rest, err := takeUvarint(p, what)
	if err != nil {
		return 0, nil, err
	}
	return int64(u>>1) ^ -int64(u&1), rest, nil
}
