package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"loadsched/internal/uop"
)

// decodeTraceFile is the reference the stream reader is checked against:
// it decodes a whole trace file of either version into memory with the
// same validation, Seq monotonicity and store numbering included, but with
// none of StreamReader's seeking, recycled buffers or wrap-around. It
// returns one replay pass: the records before a final STA whose STD the
// file cut off, or all of them.
func decodeTraceFile(data []byte) ([]uop.UOp, error) {
	r := bytes.NewReader(data)
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("short header: %w", err)
	}
	version, count, err := parseHeader(hdr)
	if err != nil {
		return nil, err
	}
	// The header count is unverified, so the slices grow with the records
	// that actually arrive rather than being sized from it.
	var us []uop.UOp
	var sids []int64
	var prevSeq int64
	add := func(v *ChunkView, i int) error {
		u, seq := v.UOp(i), v.seqs[i]
		if int(u.Kind) >= uop.NumKinds {
			return fmt.Errorf("record %d has invalid kind %d", len(us), u.Kind)
		}
		if u.Dst >= uop.MaxArchRegs || u.Src1 >= uop.MaxArchRegs || u.Src2 >= uop.MaxArchRegs {
			return fmt.Errorf("record %d names a register beyond r%d", len(us), uop.MaxArchRegs-1)
		}
		if len(us) > 0 && seq <= prevSeq {
			return fmt.Errorf("record %d breaks Seq monotonicity", len(us))
		}
		prevSeq = seq
		us = append(us, u)
		sids = append(sids, v.sids[i])
		return nil
	}
	if version == fileVersionV1 {
		var rec [recordSize]byte
		var v ChunkView
		v.grow(1)
		for uint64(len(us)) < count {
			if _, err := io.ReadFull(r, rec[:]); err != nil {
				return nil, fmt.Errorf("truncated at record %d: %w", len(us), err)
			}
			if err := v.decodeV1Record(0, &rec); err != nil {
				return nil, err
			}
			if err := add(&v, 0); err != nil {
				return nil, err
			}
		}
		return checkStoreIDs(us, sids)
	}
	var payload []byte
	var c packedChunk
	var v ChunkView
	for uint64(len(us)) < count {
		n, err := readChunkFrame(r, &payload, &c, &v, count-uint64(len(us)))
		if err != nil {
			return nil, fmt.Errorf("chunk at uop %d: %w", len(us), err)
		}
		for i := 0; i < n; i++ {
			if err := add(&v, i); err != nil {
				return nil, err
			}
		}
	}
	return checkStoreIDs(us, sids)
}

// checkStoreIDs applies the store-numbering rule to a whole decoded file
// the way it reads on paper, over the file's store halves alone: they must
// alternate STA, STD, STA, ..., half j belonging to store j/2+1 and
// carrying that id, and every other uop must carry 0. An odd count leaves
// a final STA without its STD, and the pass ends before it.
func checkStoreIDs(us []uop.UOp, sids []int64) ([]uop.UOp, error) {
	var halves []int
	for i, u := range us {
		if u.Kind.IsStorePart() {
			halves = append(halves, i)
		} else if sids[i] != 0 {
			return nil, fmt.Errorf("record %d is no store half but carries StoreID %d", i, sids[i])
		}
	}
	for j, i := range halves {
		want := uop.STA
		if j%2 == 1 {
			want = uop.STD
		}
		if us[i].Kind != want || sids[i] != int64(j/2+1) {
			return nil, fmt.Errorf("record %d is %s #%d, want %s #%d", i, us[i].Kind, sids[i], want, j/2+1)
		}
	}
	if len(halves)%2 == 1 {
		us = us[:halves[len(halves)-1]]
		if len(us) == 0 {
			return nil, fmt.Errorf("a lone final STA leaves nothing to replay")
		}
	}
	return us, nil
}

// replayReference returns the endless replay of one decoded pass that a
// reader's Next must produce: the pass, over and over.
func replayReference(us []uop.UOp) func() uop.UOp {
	i := 0
	return func() uop.UOp {
		u := us[i%len(us)]
		i++
		return u
	}
}

// writeTraceV1 writes n uops of src in the legacy v1 flat-record format,
// which the package still decodes but no longer writes, numbering them by
// stream position and their stores by rank as WriteTrace does.
func writeTraceV1(w io.Writer, src Source, n int) error {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, fileVersionV1, uint64(n)); err != nil {
		return err
	}
	var rec [recordSize]byte
	var stas int64
	for i := 0; i < n; i++ {
		u := src.Next()
		binary.LittleEndian.PutUint64(rec[0:8], uint64(i))
		binary.LittleEndian.PutUint64(rec[8:16], uint64(u.IP))
		binary.LittleEndian.PutUint64(rec[16:24], uint64(u.Addr))
		binary.LittleEndian.PutUint64(rec[24:32], uint64(storeID(&stas, u.Kind)))
		rec[32] = byte(u.Kind)
		rec[33] = byte(u.Dst)
		rec[34] = byte(u.Src1)
		rec[35] = byte(u.Src2)
		rec[36] = u.Size
		var flags byte
		if u.Taken {
			flags |= 1
		}
		if u.Mispredicted {
			flags |= 2
		}
		rec[37] = flags
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeChunkV2 writes us (≤ ChunkUops) as a one-chunk v2 trace file whose
// uop i carries Seq seqs[i] and StoreID sids[i], or its position and its
// store's rank when the slice is nil: with both nil it writes WriteTrace's
// bytes, and otherwise lets a test give a file the values WriteTrace never
// writes.
func writeChunkV2(w io.Writer, us []uop.UOp, seqs, sids []int64) error {
	return writePackedV2(w, packUops(us, seqs, sids))
}

// writePackedV2 writes c as a one-chunk v2 trace file, so a test can give
// the chunk values no uop.UOp can carry.
func writePackedV2(w io.Writer, c *packedChunk) error {
	if err := writeHeader(w, fileVersionV2, uint64(c.n)); err != nil {
		return err
	}
	payload := c.marshal(nil)
	var frame [frameSize]byte
	binary.LittleEndian.PutUint32(frame[0:4], uint32(c.n))
	binary.LittleEndian.PutUint32(frame[4:8], uint32(len(payload)))
	payload = binary.LittleEndian.AppendUint32(payload, crc32.Checksum(payload, fileCRC))
	if _, err := w.Write(frame[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}
