package ooo

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"testing"

	"loadsched/internal/memdep"
	"loadsched/internal/trace"
	"loadsched/internal/uop"
)

// chtConfig is the machine the file-replay checks run: ordering scheme s
// with the paper's reference CHT (2K entries, 4-way, 2-bit counters).
func chtConfig(s memdep.Scheme) Config {
	cfg := DefaultConfig()
	cfg.Scheme = s
	cfg.CHT = memdep.NewFullCHT(2048, 4, 2, true)
	return cfg
}

// TestReplayPastCutStore replays, far past its end, a file that `trace
// record -n 20009` writes for SysmarkNT ex: its last uop is an STA whose
// STD the recording cut off. Each replay pass must end before that STA; a
// store whose data half never comes would hold every later load predicted
// to collide, and both CHT schemes livelocked on it.
func TestReplayPastCutStore(t *testing.T) {
	p, _ := trace.TraceByName(trace.GroupSysmarkNT, "ex")
	const n = 20009
	if us := trace.Collect(p, n); us[n-1].Kind != uop.STA {
		t.Fatalf("uop %d is %s; the file must end on an STA", n-1, us[n-1].Kind)
	}
	path := filepath.Join(t.TempDir(), "ex.lsut")
	if err := trace.WriteTraceFile(path, p, n); err != nil {
		t.Fatal(err)
	}
	for _, s := range []memdep.Scheme{memdep.Inclusive, memdep.Exclusive} {
		rd, err := trace.StreamTraceFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if st := NewEngine(chtConfig(s), rd).Run(200_000); st.Uops < 200_000 {
			t.Errorf("%v: retired %d uops, want at least 200000", s, st.Uops)
		}
		rd.Close()
	}
}

// v1File encodes us in the flat v1 trace format (see internal/trace
// file.go), record i carrying Seq i and StoreID sids[i]: the one way to
// write store ids the engine would not number so itself, since the
// package's writer numbers them.
func v1File(us []uop.UOp, sids []int64) []byte {
	b := append([]byte("LSUT"), 1, 0, 0, 0)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(us)))
	for i, u := range us {
		b = binary.LittleEndian.AppendUint64(b, uint64(i))
		b = binary.LittleEndian.AppendUint64(b, uint64(u.IP))
		b = binary.LittleEndian.AppendUint64(b, uint64(u.Addr))
		b = binary.LittleEndian.AppendUint64(b, uint64(sids[i]))
		b = append(b, byte(u.Kind), byte(u.Dst), byte(u.Src1), byte(u.Src2), u.Size, 0)
	}
	return b
}

// FuzzEngineReplay runs every file trace.NewStreamReader accepts through
// an Inclusive machine with the reference CHT, past the file's end but at
// most 4,096 uops. Nothing a file can say may crash or wedge the engine;
// a wedge panics through the engine's livelock guard, and any panic fails
// the target. The seeds are a generator recording, one cut between an STA
// and its STD, three files that broke replay while the engine indexed its
// MOB by file store ids (4,096 uops cycling STD, load, ALU, STA, every
// store half carrying -5, 7 or 2^40; the reader now refuses them), and the
// recording again as v1 records.
func FuzzEngineReplay(f *testing.F) {
	p, _ := trace.TraceByName(trace.GroupSysmarkNT, "ex")
	cut := 0
	for i, u := range trace.Collect(p, 400) {
		if u.Kind == uop.STA {
			cut = i + 1
		}
	}
	for _, n := range []int{300, cut} {
		var buf bytes.Buffer
		if err := trace.WriteTrace(&buf, trace.New(p), n); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	cycle := []uop.UOp{
		{IP: 0x400000, Kind: uop.STD, Src1: 1},
		{IP: 0x400004, Kind: uop.Load, Dst: 2, Addr: 0x8000, Size: 8},
		{IP: 0x400008, Kind: uop.IntALU, Dst: 1, Src1: 2},
		{IP: 0x40000c, Kind: uop.STA, Addr: 0x8000, Size: 8},
	}
	for _, id := range []int64{-5, 7, 1 << 40} {
		us, sids := make([]uop.UOp, trace.ChunkUops), make([]int64, trace.ChunkUops)
		for i := range us {
			if us[i] = cycle[i%len(cycle)]; us[i].Kind.IsStorePart() {
				sids[i] = id
			}
		}
		f.Add(v1File(us, sids))
	}
	// The same 300 uops as v1 records, which carry no CRC, so a mutated
	// address, size, register or flag still reaches the engine.
	us, sids := trace.Collect(p, 300), make([]int64, 300)
	var stas int64
	for i, u := range us {
		switch u.Kind {
		case uop.STA:
			stas++
			sids[i] = stas
		case uop.STD:
			sids[i] = stas
		}
	}
	f.Add(v1File(us, sids))
	f.Fuzz(func(t *testing.T, data []byte) {
		rd, err := trace.NewStreamReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		n := int(min(2*rd.Uops()+4, 4096))
		if st := NewEngine(chtConfig(memdep.Inclusive), rd).Run(n); st.Uops < uint64(n) {
			t.Fatalf("retired %d uops, want at least %d", st.Uops, n)
		}
	})
}
