package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
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
// again with every StoreID moved past the previous pass's largest, so no
// StoreID names two stores.
func TestReaderWrapsAround(t *testing.T) {
	p := testProfile()
	const n = 1000
	want := Collect(p, n)
	var maxStore int64
	for _, u := range want {
		if u.StoreID > maxStore {
			maxStore = u.StoreID
		}
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, New(p), n); err != nil {
		t.Fatal(err)
	}
	rd, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	lastStore := map[int64]uop.Kind{}
	for i := 0; i < 3500; i++ {
		u := rd.Next()
		w := want[i%n]
		if w.StoreID != 0 {
			w.StoreID += int64(i/n) * maxStore
		}
		if u != w {
			t.Fatalf("uop %d (pass %d): %+v, want %+v", i, i/n, u, w)
		}
		if u.Kind == uop.STA {
			if k, seen := lastStore[u.StoreID]; seen && k == uop.STA {
				t.Fatalf("StoreID %d reused for a second STA across wraps", u.StoreID)
			}
			lastStore[u.StoreID] = uop.STA
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
