package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"loadsched/internal/experiments"
	"loadsched/internal/results"
	"loadsched/internal/runner"
	"loadsched/internal/store"
)

// tinyOptions keeps test jobs fast: one trace per group, short runs.
func tinyOptions() results.Options {
	return results.Options{Uops: 6_000, Warmup: 1_500, TracesPerGroup: 1}
}

// newTestServer returns a server over an isolated cache (so tests do not
// pollute the process-wide one) and its httptest host.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Cache == nil {
		cfg.Cache = runner.NewCache()
	}
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

func TestServeStreamMatchesDirectComputation(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	client := NewClient(hs.URL)

	var got []results.Record
	rc, err := client.Do(Job{Command: "sweep", Sweep: "chtsize", Options: tinyOptions()},
		func(rec results.Record) error { got = append(got, rec); return nil })
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("streamed %d records, want 1", len(got))
	}
	if rc == nil || rc.Simulated == 0 {
		t.Fatalf("done counters %+v: cold job should have simulated", rc)
	}

	// The same job computed directly must marshal byte-identically to the
	// streamed record: that equivalence is what makes -remote transparent.
	o := experiments.Options{Uops: 6_000, Warmup: 1_500, TracesPerGroup: 1,
		Pool: runner.NewIsolated(2, runner.NewCache())}
	want, err := experiments.SweepRecord("chtsize", defaultSweepGroup, o)
	if err != nil {
		t.Fatalf("SweepRecord: %v", err)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got[0])
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("streamed record differs from direct computation:\n got %s\nwant %s", gotJSON, wantJSON)
	}
}

func TestServeSecondJobZeroSimulations(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	client := NewClient(hs.URL)
	job := Job{Command: "figure", Figures: []string{"7"}, Options: tinyOptions()}

	cold, err := client.Do(job, nil)
	if err != nil {
		t.Fatalf("cold job: %v", err)
	}
	if cold.Simulated == 0 {
		t.Fatalf("cold job simulated nothing: %+v", cold)
	}
	warm, err := client.Do(job, nil)
	if err != nil {
		t.Fatalf("warm job: %v", err)
	}
	// Per-job pools over the shared cache: the warm job's own counters must
	// show every simulation avoided.
	if warm.Simulated != 0 {
		t.Fatalf("warm job simulated %d jobs, want 0 (%+v)", warm.Simulated, warm)
	}
	if warm.MemoHits == 0 {
		t.Fatalf("warm job reports no memo hits: %+v", warm)
	}
}

func TestServeRestartOnSameStoreServesDiskHits(t *testing.T) {
	dir := t.TempDir()
	job := Job{Command: "sweep", Sweep: "chtsize", Options: tinyOptions()}

	openCache := func() *runner.Cache {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatalf("store.Open: %v", err)
		}
		c := runner.NewCache()
		c.SetStore(st)
		return c
	}

	// First server lifetime: cold, populates the store.
	_, hs1 := newTestServer(t, Config{Workers: 2, Cache: openCache()})
	var run1 bytes.Buffer
	rc1, err := NewClient(hs1.URL).Do(job, func(rec results.Record) error {
		raw, _ := json.Marshal(rec)
		run1.Write(raw)
		return nil
	})
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	if rc1.Simulated == 0 || rc1.StoreWrites == 0 {
		t.Fatalf("first run should simulate and write the store: %+v", rc1)
	}
	hs1.Close()

	// Second server lifetime: fresh process state, same store directory.
	// Everything must come off disk — zero simulations — and the streamed
	// records must be byte-identical.
	_, hs2 := newTestServer(t, Config{Workers: 2, Cache: openCache()})
	var run2 bytes.Buffer
	rc2, err := NewClient(hs2.URL).Do(job, func(rec results.Record) error {
		raw, _ := json.Marshal(rec)
		run2.Write(raw)
		return nil
	})
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if rc2.Simulated != 0 {
		t.Fatalf("restarted server simulated %d jobs, want 0 (%+v)", rc2.Simulated, rc2)
	}
	if rc2.DiskHits == 0 {
		t.Fatalf("restarted server reports no disk hits: %+v", rc2)
	}
	if !bytes.Equal(run1.Bytes(), run2.Bytes()) {
		t.Fatalf("warm-store records differ from cold records")
	}
}

func TestServeQueueFullRejectsWith429(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1, MaxConcurrent: 1, QueueDepth: 1})
	// Controllable executor: jobs block until released, no simulation runs.
	block := make(chan struct{})
	s.exec = func(j Job, pool *runner.Pool, emit func(results.Record) error) error {
		<-block
		return nil
	}

	jobBody, _ := json.Marshal(Job{Command: "cpistack", Options: tinyOptions()})

	// First job executes, second occupies the single queue slot, third must
	// bounce. The two in-flight submissions run on goroutines because
	// accepted jobs stream: the POST does not return until the executor
	// finishes.
	var wg sync.WaitGroup
	wg.Add(2)
	for i := 0; i < 2; i++ {
		go func() {
			defer wg.Done()
			resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(jobBody))
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	defer wg.Wait()
	defer close(block) // unblock the held jobs, THEN wait for the goroutines

	// Both submissions must hold an admission slot before the third is
	// sent. Otherwise the third could claim a slot itself, and an accepted
	// job streams nothing until its executor returns, which is only after
	// this test does.
	deadline := time.Now().Add(10 * time.Second)
	for len(s.slots) < cap(s.slots) {
		if time.Now().After(deadline) {
			t.Fatalf("admission slots %d/%d never filled", len(s.slots), cap(s.slots))
		}
		time.Sleep(time.Millisecond)
	}
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(jobBody))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third job: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Errorf("429 response missing Retry-After header")
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Errorf("429 body should carry a JSON error, got err=%v body=%q", err, e.Error)
	}
}

func TestServeValidation(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
	}{
		{"garbage", `{"command":`},
		{"unknown command", `{"command":"meltdown","options":{"uops":1000}}`},
		{"zero uops", `{"command":"all","options":{"uops":0}}`},
		{"figure without figures", `{"command":"figure","options":{"uops":1000}}`},
		{"unknown figure", `{"command":"figure","figures":["99"],"options":{"uops":1000}}`},
		{"unknown sweep", `{"command":"sweep","sweep":"entropy","options":{"uops":1000}}`},
		{"unknown group", `{"command":"sweep","sweep":"window","group":"Nope","options":{"uops":1000}}`},
		{"negative traces", `{"command":"figure","figures":["5"],"options":{"uops":1000,"traces_per_group":-3}}`},
		{"group on bankpolicies", `{"command":"sweep","sweep":"bankpolicies","group":"TPC","options":{"uops":1000}}`},
		{"group on a figure", `{"command":"figure","figures":["5"],"group":"TPC","options":{"uops":1000}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("post: %v", err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
		})
	}
}

// TestValidate pins what Validate accepts and what its errors say; that
// a rejected job gets a 400 is TestServeValidation's. A group is accepted
// on the window, penalty and chtsize sweeps, or absent, and the errors for
// a negative traces_per_group and a group on any other job name the field
// and the job.
func TestValidate(t *testing.T) {
	o := results.Options{Uops: 1000}
	for _, tc := range []struct {
		job  Job
		want string // "" = accepted, else a substring of the error
	}{
		{Job{Command: "sweep", Sweep: "window", Group: "TPC", Options: o}, ""},
		{Job{Command: "sweep", Sweep: "chtsize", Options: o}, ""},
		{Job{Command: "sweep", Sweep: "bankpolicies", Options: o}, ""},
		{Job{Command: "all", Options: results.Options{Uops: 1000, TracesPerGroup: 2}}, ""},
		{Job{Command: "sweep", Sweep: "penalty", Options: results.Options{Uops: 1000, TracesPerGroup: -1}},
			"traces per group must be positive, or 0 for every trace, got -1"},
		{Job{Command: "cpistack", Group: "TPC", Options: o}, "cpistack takes no group"},
	} {
		err := Validate(tc.job)
		if tc.want == "" && err != nil {
			t.Errorf("%s %+v: rejected: %v", tc.job.Name(), tc.job, err)
		}
		if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s %+v: err %v, want one containing %q", tc.job.Name(), tc.job, err, tc.want)
		}
	}
}

// TestServeOversizedBodyRejectedWith413 checks the request-size bound: a
// job body past maxJobBytes is refused with 413 and a message naming the
// limit, and nothing runs.
func TestServeOversizedBodyRejectedWith413(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	s.exec = func(Job, *runner.Pool, func(results.Record) error) error {
		t.Error("an oversized job reached execution")
		return nil
	}
	body := `{"command":"` + strings.Repeat("x", maxJobBytes) + `"}`
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("decoding the error body: %v", err)
	}
	if limit := fmt.Sprint(maxJobBytes); !strings.Contains(e.Error, limit) {
		t.Fatalf("error %q does not name the %s-byte limit", e.Error, limit)
	}
}

func TestServeJobPanicBecomesStreamError(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	s.exec = func(j Job, pool *runner.Pool, emit func(results.Record) error) error {
		panic("engine exploded")
	}
	_, err := NewClient(hs.URL).Do(Job{Command: "all", Options: tinyOptions()}, nil)
	if err == nil || !strings.Contains(err.Error(), "engine exploded") {
		t.Fatalf("want a stream error carrying the panic, got %v", err)
	}
}

// TestServeMapPanicBecomesStreamError: a panic on one of a job pool's
// worker goroutines (Workers >= 2) must still reach Server.run's recover,
// failing that job with a stream error while the server keeps serving.
func TestServeMapPanicBecomesStreamError(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 2})
	s.exec = func(j Job, pool *runner.Pool, emit func(results.Record) error) error {
		runner.Map(pool, 4, func(i int) int {
			if i == 1 {
				panic("simulation exploded on a worker")
			}
			return i
		})
		return nil
	}
	_, err := NewClient(hs.URL).Do(Job{Command: "all", Options: tinyOptions()}, nil)
	if err == nil || !strings.Contains(err.Error(), "simulation exploded on a worker") {
		t.Fatalf("want a stream error carrying the worker panic, got %v", err)
	}
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz after a panicked job: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after a panicked job: status %d", resp.StatusCode)
	}
}

func TestServeStatusAndHealth(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	cache := runner.NewCache()
	cache.SetStore(st)
	_, hs := newTestServer(t, Config{Cache: cache})

	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v status=%v", err, resp)
	}
	resp.Body.Close()

	resp, err = http.Get(hs.URL + "/v1/status")
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	defer resp.Body.Close()
	var got struct {
		CacheEntries int `json:"cache_entries"`
		Store        *struct {
			Dir string `json:"dir"`
		} `json:"store"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	if got.Store == nil || got.Store.Dir != dir {
		t.Fatalf("status store = %+v, want dir %s", got.Store, dir)
	}
}

func TestCountersFoldsStoreTotals(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	cache := runner.NewCache()
	cache.SetStore(st)
	pool := runner.NewIsolated(1, cache)
	rc := Counters(pool)
	if rc.Jobs != 0 {
		t.Fatalf("fresh pool counters: %+v", rc)
	}
	// Store totals surface even before any job runs (all zero here) without
	// tripping the conversion.
	if rc.StoreHits != 0 || rc.StoreWrites != 0 {
		t.Fatalf("unexpected store totals: %+v", rc)
	}
	if s := fmt.Sprint(rc); s == "" {
		t.Fatal("counters should stringify")
	}
}
