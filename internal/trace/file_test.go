package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"loadsched/internal/uop"
)

func TestWriteReadRoundTrip(t *testing.T) {
	p := testProfile()
	want := Collect(p, 5000)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, New(p), 5000); err != nil {
		t.Fatal(err)
	}
	rd, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rd.Uops() != 5000 {
		t.Fatalf("len = %d", rd.Uops())
	}
	for i, w := range want {
		got := rd.Next()
		if got != w {
			t.Fatalf("record %d: got %+v want %+v", i, got, w)
		}
	}
}

// TestReaderWrapsAround: past the end of the file the reader replays it
// again, uop for uop. Uops carry no store ids, so a wrap renumbers
// nothing: the consumer's store count just keeps rising.
func TestReaderWrapsAround(t *testing.T) {
	p := testProfile()
	const n = 1000
	var buf bytes.Buffer
	if err := WriteTrace(&buf, New(p), n); err != nil {
		t.Fatal(err)
	}
	want := Collect(p, n)
	if want[n-1].Kind() == uop.STA {
		want = want[:n-1] // the pass ends before a cut store
	}
	rd, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3500; i++ {
		if u, w := rd.Next(), want[i%len(want)]; u != w {
			t.Fatalf("uop %d (pass %d): %+v, want %+v", i, i/len(want), u, w)
		}
	}
}

// TestReaderEndsPassBeforeCutStore: a file cut between a store's STA and
// its STD (as `trace record -n N` can write one) is accepted, still
// reports its full length, and replays every pass up to that STA only, so
// a store whose data half never comes is never replayed. A file that is
// only such an STA leaves nothing to replay and is refused.
func TestReaderEndsPassBeforeCutStore(t *testing.T) {
	p := testProfile()
	us := Collect(p, 3*ChunkUops)
	n := len(us)
	for us[n-1].Kind() != uop.STA {
		n--
	}
	if n%ChunkUops == 0 {
		t.Fatalf("cut at a chunk boundary (%d) would not exercise a partial chunk", n)
	}
	for _, tc := range []struct {
		name  string
		write func(w io.Writer) error
	}{
		{"v2", func(w io.Writer) error { return WriteTrace(w, New(p), n) }},
		{"v1", func(w io.Writer) error { return writeTraceV1(w, New(p), n) }},
	} {
		var buf bytes.Buffer
		if err := tc.write(&buf); err != nil {
			t.Fatal(err)
		}
		rd, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rd.Uops() != int64(n) || rd.pass != int64(n-1) {
			t.Fatalf("%s: %d uops, pass %d; want %d and %d", tc.name, rd.Uops(), rd.pass, n, n-1)
		}
		for i := 0; i < 3*(n-1)+5; i++ {
			if u, w := rd.Next(), us[i%(n-1)]; u != w {
				t.Fatalf("%s: uop %d: %+v, want %+v", tc.name, i, u, w)
			}
		}
	}
	var lone bytes.Buffer
	if err := writeChunkV2(&lone, us[n-1:n], nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStreamReader(bytes.NewReader(lone.Bytes())); err == nil || !strings.Contains(err.Error(), "record 0") {
		t.Errorf("a lone STA: err %v, want a refusal naming record 0", err)
	}
}

// storeCycle returns n uops cycling STD, load, ALU, STA, or, with staFirst,
// STA, STD, load, ALU, and sids giving every store half the StoreID id.
// With STD first and ids -5, 7 and 2^40 it is the shape of three files
// that crashed, livelocked and exhausted replay while the engine indexed
// its MOB by the ids a file carried.
func storeCycle(n int, id int64, staFirst bool) ([]uop.UOp, []int64) {
	cycle := []uop.UOp{
		{IP: 0x400000, Op: uop.NewOp(uop.STD, 0), Src1: 1},
		{IP: 0x400004, Op: uop.NewOp(uop.Load, 8), Dst: 2, Addr: 0x8000},
		{IP: 0x400008, Op: uop.NewOp(uop.IntALU, 0), Dst: 1, Src1: 2},
		{IP: 0x40000c, Op: uop.NewOp(uop.STA, 8), Addr: 0x8000},
	}
	if staFirst {
		cycle = append(cycle[3:], cycle[:3]...)
	}
	us, sids := make([]uop.UOp, n), make([]int64, n)
	for i := range us {
		us[i] = cycle[i%len(cycle)]
		if k := us[i].Kind(); k == uop.STA || k == uop.STD {
			sids[i] = id
		}
	}
	return us, sids
}

// hostileStoreFiles returns the three files storeCycle describes, 4,096
// uops each, as the chunk encoder writes them.
func hostileStoreFiles(tb testing.TB) [][]byte {
	var files [][]byte
	for _, id := range []int64{-5, 7, 1 << 40} {
		us, sids := storeCycle(ChunkUops, id, false)
		var buf bytes.Buffer
		if err := writeChunkV2(&buf, us, nil, sids); err != nil {
			tb.Fatal(err)
		}
		files = append(files, buf.Bytes())
	}
	return files
}

// TestReaderRefusesHostileStoreIDs: the engine numbers stores by rank at
// rename, so a file's StoreIDs must say the same — the k-th STA carries k,
// the next store half is its STD with the same id, every other uop 0 — its
// IPs and addresses must fit 32 bits, and its access sizes must be ones a
// uop's op byte can hold. Each file breaking a rule is refused at open, and
// the error names the record.
func TestReaderRefusesHostileStoreIDs(t *testing.T) {
	hostile := hostileStoreFiles(t)
	v2 := func(us []uop.UOp, sids []int64) []byte {
		var buf bytes.Buffer
		if err := writeChunkV2(&buf, us, nil, sids); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ranked := func(mutate func(us []uop.UOp, sids []int64)) []byte {
		us, _ := storeCycle(64, 0, true)
		sids := make([]int64, len(us))
		var stas int64
		for i := range us {
			sids[i] = storeID(&stas, us[i].Kind())
		}
		mutate(us, sids)
		return v2(us, sids)
	}
	staFirst := func(id int64) []byte { return v2(storeCycle(ChunkUops, id, true)) }
	var v1 bytes.Buffer
	if err := writeTraceV1(&v1, New(testProfile()), 64); err != nil {
		t.Fatal(err)
	}
	v1Wide := func(off int) []byte {
		data := append([]byte{}, v1.Bytes()...)
		binary.LittleEndian.PutUint64(data[16+5*recordSize+off:], 1<<32)
		return data
	}
	v1Size := func(rec int, size byte) []byte {
		data := append([]byte{}, v1.Bytes()...)
		data[16+rec*recordSize+36] = size
		return data
	}
	wideChunk := func(mutate func(c *packedChunk)) []byte {
		c := packUops(Collect(testProfile(), 64), nil, nil)
		mutate(c)
		var buf bytes.Buffer
		if err := writePackedV2(&buf, c); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"STD first, every id -5", hostile[0], "record 0 is an STD with no STA before it"},
		{"STD first, every id 7", hostile[1], "record 0 is an STD with no STA before it"},
		{"STD first, every id 2^40", hostile[2], "record 0 is an STD with no STA before it"},
		{"every id -5", staFirst(-5), "record 0 (sta) carries StoreID -5, want 1"},
		{"every id 7", staFirst(7), "record 0 (sta) carries StoreID 7, want 1"},
		{"every id 2^40", staFirst(1 << 40), "record 0 (sta) carries StoreID 1099511627776, want 1"},
		{"second store skips an id", ranked(func(_ []uop.UOp, sids []int64) { sids[4], sids[5] = 3, 3 }),
			"record 4 (sta) carries StoreID 3, want 2"},
		{"STD names another store", ranked(func(_ []uop.UOp, sids []int64) { sids[1] = 2 }),
			"record 1 (std) carries StoreID 2, want 1"},
		{"load carries an id", ranked(func(_ []uop.UOp, sids []int64) { sids[2] = 1 }),
			"record 2 (ld) carries StoreID 1, want 0"},
		{"two STAs in a row", ranked(func(us []uop.UOp, sids []int64) { us[1].Op, sids[1] = uop.NewOp(uop.STA, 0), 2 }),
			"record 1 is an STA, but the STA at record 0 has no STD yet"},
		{"v1 ip beyond 32 bits", v1Wide(8), "record 5 has an ip 0x100000000"},
		{"v1 address beyond 32 bits", v1Wide(16), "record 5 has an ip"},
		{"v2 ip beyond 32 bits", wideChunk(func(c *packedChunk) { c.baseIP += 1 << 32 }), "uop 0 has ip 0x1"},
		{"v2 address beyond 32 bits", wideChunk(func(c *packedChunk) { c.baseAddr += 1 << 32 }), "address 0x1"},
		{"v1 access size without a code", v1Size(5, 3), "record 5 has access size 3, which has no code"},
		{"v2 access size without a code", wideChunk(func(c *packedChunk) { c.sizes[5] = 16 }),
			"record 5 has access size 16, which has no code"},
	} {
		_, err := NewStreamReader(bytes.NewReader(tc.data))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want one containing %q", tc.name, err, tc.want)
		}
		if _, err := decodeTraceFile(tc.data); err == nil {
			t.Errorf("%s: the reference decode accepts it", tc.name)
		}
	}
}

func TestTraceFileOnDisk(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.lsut")
	p := testProfile()
	if err := WriteTraceFile(path, p, 2000); err != nil {
		t.Fatal(err)
	}
	rd, err := StreamTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if rd.Uops() != 2000 {
		t.Fatalf("len = %d", rd.Uops())
	}
	want := Collect(p, 2000)
	for i := range want {
		if got := rd.Next(); got != want[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("XXXXxxxxxxxxxxxxxxxx"),
		"short":     append([]byte("LSUT\x01\x00\x00\x00"), 10, 0, 0, 0, 0, 0, 0, 0),
	}
	for name, data := range cases {
		if _, err := NewStreamReader(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestReaderRejectsBadVersionAndKind(t *testing.T) {
	p := testProfile()
	var v2, v1 bytes.Buffer
	if err := WriteTrace(&v2, New(p), 4); err != nil {
		t.Fatal(err)
	}
	if err := writeTraceV1(&v1, New(p), 4); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte{}, v2.Bytes()...)
	bad[4] = 99 // version
	if _, err := NewStreamReader(bytes.NewReader(bad)); err == nil {
		t.Error("bad version accepted")
	}
	// A v1 record's kind is a raw byte, so only the kind check stands
	// between it and the engine (a v2 chunk's CRC would catch it first).
	bad = append([]byte{}, v1.Bytes()...)
	bad[16+32] = 200 // first record's kind
	if _, err := NewStreamReader(bytes.NewReader(bad)); err == nil {
		t.Error("bad kind accepted")
	}
}

// TestWriteTraceDigest pins the v2 file bytes WriteTrace writes for three
// profiles at 10K uops each, so a change to the uop model, the generator or
// the encoder cannot move the file format unnoticed. The digests were
// taken when uops still carried a Seq field that WriteTrace encoded; it
// now numbers uops by position, and the bytes did not change. A deliberate
// format change regenerates them with
// `go test ./internal/trace -run TestWriteTraceDigest -v`.
func TestWriteTraceDigest(t *testing.T) {
	for _, tc := range []struct {
		group, name string
		size        int
		sha256      string
	}{
		{GroupSpecInt95, "gcc", 83844, "31efd19f122e6f1718f09de2d9e92b4ea36bb51a6ba5426f95b23e378d4d31d1"},
		{GroupSpecFP95, "swim", 83422, "bacacdd26a26140c379cc57a54d1449c63dd7b858bdb34afe2e6343e9096cae8"},
		{GroupSysmarkNT, "ex", 86626, "e83be1b4559350ca156fc69918d85c8509c5d010ab127846e688173e6f82272c"},
	} {
		p, ok := TraceByName(tc.group, tc.name)
		if !ok {
			t.Fatalf("no trace %s/%s", tc.group, tc.name)
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, New(p), 10_000); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		got := hex.EncodeToString(sum[:])
		t.Logf("%s/%s: %d bytes, sha256 %s", tc.group, tc.name, buf.Len(), got)
		if buf.Len() != tc.size || got != tc.sha256 {
			t.Errorf("%s/%s: %d bytes, sha256 %s; want %d bytes, sha256 %s",
				tc.group, tc.name, buf.Len(), got, tc.size, tc.sha256)
		}
	}
}
