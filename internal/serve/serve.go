// Package serve puts an HTTP job API in front of the simulation pool: the
// first step from single-process tool to shared simulation service. A
// loadsched serve process accepts figure/all/sweep/cpistack/tournament
// jobs as JSON, executes them on the process-wide memo cache (optionally
// backed by the persistent result store, so a warm second sweep performs
// zero simulations), and streams results/v1 records back chunk-by-chunk as
// they are produced.
//
// Protocol (POST /v1/jobs):
//
//	request  — a Job: {"command":"figure","figures":["7"],"options":{...}}
//	response — application/x-ndjson, one Line per line:
//	             {"record": <results/v1 record>}   (repeated, in job order)
//	             {"error": "..."}                  (terminal, on failure)
//	             {"done": {"runner": <counters>}}  (terminal, on success)
//
// Each job runs on its own runner.Pool sharing the server-wide cache, so
// the done-line counters are per-job: a client can prove a warm run
// performed zero simulations. Back-pressure is a bounded admission queue —
// jobs beyond the executing + queued capacity are rejected with 429 and a
// Retry-After header rather than piling onto the process. A request body
// larger than maxJobBytes is rejected with 413 before it is decoded.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"time"

	"loadsched/internal/experiments"
	"loadsched/internal/results"
	"loadsched/internal/runner"
	"loadsched/internal/trace"
)

// defaultSweepGroup is the group a window, penalty or chtsize sweep job
// that names none runs over; the CLI sends -group only when it is given.
const defaultSweepGroup = trace.GroupSysmarkNT

// Job is one simulation request. Command selects the work: "figure" (the
// Figures list), "all" (every paper figure), "cpistack", "tournament", or
// "sweep" (Sweep kind + Group). Options scale it exactly as the CLI flags
// do; Uops must be positive and Warmup may be -1 for an explicitly empty
// warmup region.
type Job struct {
	Command string          `json:"command"`
	Figures []string        `json:"figures,omitempty"`
	Sweep   string          `json:"sweep,omitempty"`
	Group   string          `json:"group,omitempty"`
	Options results.Options `json:"options"`
}

// Name is the job as a command line, the form the results envelope
// records: "all", "figure 5", "sweep window", "cpistack", "tournament".
func (j Job) Name() string {
	switch j.Command {
	case "figure":
		return "figure " + strings.Join(j.Figures, " ")
	case "sweep":
		return "sweep " + j.Sweep
	}
	return j.Command
}

// Line is one NDJSON message of a job's response stream.
type Line struct {
	// Record is one results/v1 record, in job order.
	Record json.RawMessage `json:"record,omitempty"`
	// Error terminates the stream on failure (it may follow records).
	Error string `json:"error,omitempty"`
	// Done terminates the stream on success.
	Done *Done `json:"done,omitempty"`
}

// Done is the success trailer: per-job pool counters (plus process-wide
// store totals), so clients can verify cache behavior — e.g. that a warm
// sweep simulated nothing.
type Done struct {
	Runner results.RunnerCounters `json:"runner"`
}

// maxJobBytes bounds a job request body. A job is well under 1 KB; the cap
// only stops one request from making the server buffer an arbitrarily
// large JSON value.
const maxJobBytes = 1 << 20

// Config parameterizes a Server.
type Config struct {
	// Workers bounds each job's simulation concurrency (0 = GOMAXPROCS).
	Workers int
	// MaxConcurrent bounds simultaneously executing jobs (default 2).
	MaxConcurrent int
	// QueueDepth bounds jobs waiting behind the executing ones (default 8).
	// A job arriving when the queue is full is rejected with 429.
	QueueDepth int
	// Cache is the memo cache jobs share; nil selects the process-wide
	// shared cache. Attach a store to it for persistence.
	Cache *runner.Cache
	// Logf, when non-nil, receives one line per accepted job and per
	// rejection (the operational log).
	Logf func(format string, args ...any)
}

// Server executes jobs over HTTP. Construct with New.
type Server struct {
	cfg Config
	// slots is the admission bound (executing + queued); running bounds
	// actual execution. Both are counting semaphores.
	slots   chan struct{}
	running chan struct{}
	// exec runs one validated job, emitting records as they are produced.
	// It is a field so tests can substitute a controllable executor.
	exec func(j Job, pool *runner.Pool, emit func(results.Record) error) error
}

// New returns a Server for the configuration.
func New(cfg Config) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	} else if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 8
	}
	s := &Server{
		cfg:     cfg,
		slots:   make(chan struct{}, cfg.MaxConcurrent+cfg.QueueDepth),
		running: make(chan struct{}, cfg.MaxConcurrent),
	}
	s.exec = runJob
	return s
}

// Handler returns the HTTP handler: POST /v1/jobs plus /healthz and
// /v1/status.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/v1/status", s.handleStatus)
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	return mux
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleStatus reports cache/store occupancy — ops visibility, not part of
// the job protocol.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	cache := s.cache()
	st := struct {
		CacheEntries int          `json:"cache_entries"`
		Queued       int          `json:"queued"`
		Running      int          `json:"running"`
		Store        *storeStatus `json:"store,omitempty"`
	}{
		CacheEntries: cache.Len(),
		Queued:       len(s.slots) - len(s.running),
		Running:      len(s.running),
	}
	if disk := cache.Store(); disk != nil {
		c := disk.Counters()
		st.Store = &storeStatus{Dir: disk.Dir(), Hits: c.Hits, Misses: c.Misses,
			Corrupt: c.Corrupt, Writes: c.Writes, WriteErrors: c.WriteErrors}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

type storeStatus struct {
	Dir         string `json:"dir"`
	Hits        int64  `json:"hits"`
	Misses      int64  `json:"misses"`
	Corrupt     int64  `json:"corrupt"`
	Writes      int64  `json:"writes"`
	WriteErrors int64  `json:"write_errors"`
}

func (s *Server) cache() *runner.Cache {
	if s.cfg.Cache != nil {
		return s.cfg.Cache
	}
	return runner.Shared()
}

// httpError writes a JSON error body with the status code.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{fmt.Sprintf(format, args...)})
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST a job to /v1/jobs")
		return
	}
	var job Job
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobBytes)).Decode(&job); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "job body exceeds the %d-byte limit", tooBig.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "decoding job: %v", err)
		return
	}
	if err := Validate(job); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Admission: executing + queued jobs are bounded; beyond that the
	// client is told when to come back rather than silently parked.
	select {
	case s.slots <- struct{}{}:
	default:
		w.Header().Set("Retry-After", "1")
		s.logf("serve: job %s rejected: queue full", job.Command)
		httpError(w, http.StatusTooManyRequests, "job queue full; retry later")
		return
	}
	defer func() { <-s.slots }()
	select {
	case s.running <- struct{}{}:
	case <-r.Context().Done():
		return
	}
	defer func() { <-s.running }()

	s.logf("serve: job %s figures=%v sweep=%s uops=%d start", job.Command, job.Figures, job.Sweep, job.Options.Uops)
	start := time.Now()

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	emit := func(rec results.Record) error {
		raw, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		if err := enc.Encode(Line{Record: raw}); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}

	pool := runner.NewIsolated(s.cfg.Workers, s.cache())
	err := s.run(job, pool, emit)
	if err != nil {
		s.logf("serve: job %s failed after %s: %v", job.Command, time.Since(start).Round(time.Millisecond), err)
		enc.Encode(Line{Error: err.Error()})
		return
	}
	c := Counters(pool)
	s.logf("serve: job %s done in %s (%s)", job.Command, time.Since(start).Round(time.Millisecond), c)
	enc.Encode(Line{Done: &Done{Runner: c}})
	if flusher != nil {
		flusher.Flush()
	}
}

// run executes the job's executor with panic isolation: a panicking
// simulation must take down the job, not the server.
func (s *Server) run(job Job, pool *runner.Pool, emit func(results.Record) error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("job panicked: %v", p)
		}
	}()
	return s.exec(job, pool, emit)
}

// Validate checks a job before it runs: known command, known figures,
// sweep kind and group, sane options. The server answers a failure with
// 400 and the CLI with its one-line error, so the messages name only the
// job.
func Validate(j Job) error {
	if j.Options.Uops <= 0 {
		return fmt.Errorf("uops must be positive, got %d", j.Options.Uops)
	}
	if j.Options.TracesPerGroup < 0 {
		return fmt.Errorf("traces per group must be positive, or 0 for every trace, got %d", j.Options.TracesPerGroup)
	}
	switch j.Command {
	case "figure":
		if len(j.Figures) == 0 {
			return fmt.Errorf("figure job names no figures")
		}
		for _, f := range j.Figures {
			if !slices.Contains(experiments.FigureIDs, "fig"+f) {
				return fmt.Errorf("unknown figure %q (want 5-12)", f)
			}
		}
	case "all", "cpistack", "tournament":
	case "sweep":
		if !slices.Contains(experiments.SweepKinds, j.Sweep) {
			return fmt.Errorf("unknown sweep %q (want one of %v)", j.Sweep, experiments.SweepKinds)
		}
		if _, known := trace.GroupProfiles(j.Group); !known && j.Group != "" {
			return fmt.Errorf("unknown group %q (want one of %v)", j.Group, trace.GroupNames())
		}
	default:
		return fmt.Errorf("unknown command %q (want figure | all | sweep | cpistack | tournament)", j.Command)
	}
	// Only these sweeps run over a chosen group; the bank-policy sweep is
	// defined on SpecInt95, and the other jobs cover every group.
	if j.Group != "" && (j.Command != "sweep" || j.Sweep == "bankpolicies") {
		return fmt.Errorf("%s takes no group (only the window, penalty and chtsize sweeps do)", j.Name())
	}
	return nil
}

// runJob is the server's executor: Execute, emitting records only.
func runJob(j Job, pool *runner.Pool, emit func(results.Record) error) error {
	return Execute(j, pool, func(r experiments.Result) error { return emit(r.Record) })
}

// Execute runs a validated job on pool and emits each experiment's result
// as soon as it is complete, which is what lets multi-figure jobs stream
// instead of buffering. It is the one path from a job to its results:
// the server and the CLI's local runs both take it.
func Execute(j Job, pool *runner.Pool, emit func(experiments.Result) error) error {
	o := experiments.Options{
		Uops:           j.Options.Uops,
		Warmup:         j.Options.Warmup,
		TracesPerGroup: j.Options.TracesPerGroup,
		Pool:           pool,
	}
	group := j.Group
	if group == "" {
		group = defaultSweepGroup
	}
	one := func(id string) error {
		res, err := experiments.Run(id, group, o)
		if err != nil {
			return err
		}
		return emit(res)
	}
	switch j.Command {
	case "figure":
		for _, f := range j.Figures {
			if err := one("fig" + f); err != nil {
				return err
			}
		}
	case "all":
		for _, id := range experiments.FigureIDs {
			if err := one(id); err != nil {
				return err
			}
		}
	case "cpistack", "tournament":
		return one(j.Command)
	case "sweep":
		return one("sweep-" + j.Sweep)
	default:
		return fmt.Errorf("unknown command %q", j.Command)
	}
	return nil
}

// Counters snapshots a pool's counters in the results-envelope form, folding
// in the persistent store's totals when the pool's cache is store-backed.
// This is the one conversion both the CLI's -v path and the serve done-line
// use.
func Counters(pool *runner.Pool) results.RunnerCounters {
	c := pool.Counters()
	rc := results.RunnerCounters{
		Jobs: c.Jobs, Simulated: c.Simulated, MemoHits: c.MemoHits,
		DiskHits: c.DiskHits, Coalesced: c.Coalesced, Uncached: c.Uncached,
		MapTasks:     c.MapTasks,
		EngineBuilds: c.EngineBuilds, EngineReuses: c.EngineReuses,
		SimMillis:    float64(c.SimTime) / float64(time.Millisecond),
		CacheEntries: pool.CacheLen(),
	}
	if dc, ok := pool.DiskCounters(); ok {
		rc.StoreHits = dc.Hits
		rc.StoreWrites = dc.Writes
		rc.StoreCorrupt = dc.Corrupt
	}
	return rc
}
