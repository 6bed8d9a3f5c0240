package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"loadsched/internal/results"
)

// fake429Server answers the first busy submissions with 429 + Retry-After,
// then streams a done line.
func fake429Server(t *testing.T, busy int32, retryAfter string) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if n <= busy {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			_ = json.NewEncoder(w).Encode(map[string]string{"error": "job queue full; retry later"})
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = json.NewEncoder(w).Encode(Line{Done: &Done{Runner: results.RunnerCounters{Jobs: 1}}})
	}))
	t.Cleanup(srv.Close)
	return srv, &calls
}

// TestClientRetries429 pins the admission-retry behavior: a momentarily
// full queue is ridden out (sleeping the Retry-After hint) and the job
// succeeds on a later attempt.
func TestClientRetries429(t *testing.T) {
	srv, calls := fake429Server(t, 2, "1")
	c := NewClient(srv.URL)
	var slept []time.Duration
	c.sleep = func(d time.Duration) { slept = append(slept, d) }
	rc, err := c.Do(Job{Command: "figure", Figures: []string{"5"}}, nil)
	if err != nil {
		t.Fatalf("Do after transient 429s: %v", err)
	}
	if rc == nil || rc.Jobs != 1 {
		t.Fatalf("done counters not returned: %+v", rc)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d submissions, want 3 (2 rejected + 1 accepted)", got)
	}
	if len(slept) != 2 {
		t.Fatalf("client slept %d times, want 2", len(slept))
	}
	for i, d := range slept {
		if d != time.Second {
			t.Errorf("sleep %d = %v, want the 1s Retry-After hint", i, d)
		}
	}
}

// TestClientRetryBudgetExhausted pins the failure mode: a persistently
// full server still errors, after exactly the retry budget.
func TestClientRetryBudgetExhausted(t *testing.T) {
	srv, calls := fake429Server(t, 1<<30, "0")
	c := NewClient(srv.URL)
	c.sleep = func(time.Duration) {}
	_, err := c.Do(Job{Command: "figure", Figures: []string{"5"}}, nil)
	if err == nil {
		t.Fatal("Do succeeded against a permanently busy server")
	}
	if !strings.Contains(err.Error(), "server busy") {
		t.Fatalf("error should report the busy rejection, got: %v", err)
	}
	if got := calls.Load(); got != clientMaxRetries+1 {
		t.Fatalf("server saw %d submissions, want %d (initial + %d retries)",
			got, clientMaxRetries+1, clientMaxRetries)
	}
}

// TestRetryWait pins the backoff arithmetic: hints are honored but capped,
// and garbled hints fall back to bounded exponential waits.
func TestRetryWait(t *testing.T) {
	cases := []struct {
		header  string
		attempt int
		want    time.Duration
	}{
		{"1", 0, time.Second},
		{"0", 3, 0},
		{"3600", 0, clientMaxRetryWait},      // absurd hint capped
		{"", 0, clientBaseRetryWait},         // no hint: exponential
		{"soon", 1, 2 * clientBaseRetryWait}, // garbled hint: exponential
		{"-5", 9, clientMaxRetryWait},        // negative hint: exponential, capped
	}
	for _, tc := range cases {
		if got := retryWait(tc.header, tc.attempt); got != tc.want {
			t.Errorf("retryWait(%q, %d) = %v, want %v", tc.header, tc.attempt, got, tc.want)
		}
	}
}

// TestClientReadsLongRecordLine: the stream scanner starts small and grows,
// so a record line far beyond its initial buffer (and beyond bufio's
// default 64 KB token limit) still arrives whole.
func TestClientReadsLongRecordLine(t *testing.T) {
	cell := strings.Repeat("x", 200<<10)
	rec := results.Record{Schema: results.SchemaVersion, ID: "long", Kind: results.KindTable,
		Title: "long line", Columns: []string{"cell"}, Rows: [][]string{{cell}}}
	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		_ = enc.Encode(Line{Record: raw})
		_ = enc.Encode(Line{Done: &Done{Runner: results.RunnerCounters{Jobs: 1}}})
	}))
	t.Cleanup(srv.Close)
	var got []results.Record
	rc, err := NewClient(srv.URL).Do(Job{Command: "figure", Figures: []string{"5"}}, func(r results.Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if rc == nil || rc.Jobs != 1 {
		t.Fatalf("done counters not returned: %+v", rc)
	}
	if len(got) != 1 {
		t.Fatalf("got %d records, want 1", len(got))
	}
	rows, ok := got[0].Rows.([][]string)
	if !ok || len(rows) != 1 || len(rows[0]) != 1 || rows[0][0] != cell {
		t.Fatalf("long record arrived damaged (%d rows)", len(rows))
	}
}
