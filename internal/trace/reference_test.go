package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"loadsched/internal/uop"
)

// decodeTraceFile is the reference the stream reader is checked against:
// it decodes a whole trace file of either version into memory with the
// same validation, but with none of StreamReader's seeking, recycled
// buffers or wrap-around.
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
	// The header count is unverified, so the slice grows with the records
	// that actually arrive rather than being sized from it.
	var us []uop.UOp
	add := func(u uop.UOp) error {
		if int(u.Kind) >= uop.NumKinds {
			return fmt.Errorf("record %d has invalid kind %d", len(us), u.Kind)
		}
		if u.Dst >= uop.MaxArchRegs || u.Src1 >= uop.MaxArchRegs || u.Src2 >= uop.MaxArchRegs {
			return fmt.Errorf("record %d names a register beyond r%d", len(us), uop.MaxArchRegs-1)
		}
		if len(us) > 0 && u.Seq <= us[len(us)-1].Seq {
			return fmt.Errorf("record %d breaks Seq monotonicity", len(us))
		}
		us = append(us, u)
		return nil
	}
	if version == fileVersionV1 {
		var rec [recordSize]byte
		for uint64(len(us)) < count {
			if _, err := io.ReadFull(r, rec[:]); err != nil {
				return nil, fmt.Errorf("truncated at record %d: %w", len(us), err)
			}
			if err := add(decodeV1Record(rec)); err != nil {
				return nil, err
			}
		}
		return us, nil
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
			if err := add(v.UOp(i)); err != nil {
				return nil, err
			}
		}
	}
	return us, nil
}

// replayReference returns the endless replay of decoded uops that a
// reader's Next must produce: pass k shifts every Seq past pass k-1's last
// Seq and every nonzero StoreID past its largest StoreID.
func replayReference(us []uop.UOp) func() uop.UOp {
	var maxStore int64
	for _, u := range us {
		if u.StoreID > maxStore {
			maxStore = u.StoreID
		}
	}
	seqStep := us[len(us)-1].Seq + 1
	i := 0
	return func() uop.UOp {
		pass := int64(i / len(us))
		u := us[i%len(us)]
		i++
		u.Seq += pass * seqStep
		if u.StoreID != 0 {
			u.StoreID += pass * maxStore
		}
		return u
	}
}

// writeTraceV1 writes n uops of src in the legacy v1 flat-record format,
// which the package still decodes but no longer writes.
func writeTraceV1(w io.Writer, src Source, n int) error {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, fileVersionV1, uint64(n)); err != nil {
		return err
	}
	var rec [recordSize]byte
	for i := 0; i < n; i++ {
		u := src.Next()
		binary.LittleEndian.PutUint64(rec[0:8], uint64(u.Seq))
		binary.LittleEndian.PutUint64(rec[8:16], u.IP)
		binary.LittleEndian.PutUint64(rec[16:24], u.Addr)
		binary.LittleEndian.PutUint64(rec[24:32], uint64(u.StoreID))
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
