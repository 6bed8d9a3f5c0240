package trace

import (
	"bytes"
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

func TestReaderWrapsAround(t *testing.T) {
	p := testProfile()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, New(p), 1000); err != nil {
		t.Fatal(err)
	}
	rd, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var prevSeq int64 = -1
	lastStore := map[int64]uop.Kind{}
	for i := 0; i < 3500; i++ {
		u := rd.Next()
		if u.Seq <= prevSeq {
			t.Fatalf("Seq not strictly increasing across wrap: %d after %d", u.Seq, prevSeq)
		}
		prevSeq = u.Seq
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
