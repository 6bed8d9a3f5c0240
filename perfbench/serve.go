package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"loadsched/internal/experiments"
	"loadsched/internal/results"
	"loadsched/internal/runner"
	"loadsched/internal/serve"
	"loadsched/internal/store"
	"loadsched/internal/trace"
)

// roundNominal is a warm round's wall time on a 2-vCPU host.
const roundNominal = 30 * time.Millisecond

// serveSize scales the serve_warm job set.
type serveSize struct{ Uops, Warmup, TracesPerGroup int }

var benchServe = serveSize{Uops: 15_000, Warmup: 3_000, TracesPerGroup: 2}

// jobSet is one job of every memoised kind: the window, penalty and
// chtsize sweeps over every group, cpistack, tournament, and figures 5-8
// and 11. Figures 9, 10 and 12 re-run predictors on every request, so a
// warm store cannot answer them without simulating.
func (s serveSize) jobSet() []serve.Job {
	o := results.Options{Uops: s.Uops, Warmup: s.Warmup, TracesPerGroup: s.TracesPerGroup}
	var jobs []serve.Job
	for _, kind := range []string{"window", "penalty", "chtsize"} {
		for _, g := range trace.GroupNames() {
			jobs = append(jobs, serve.Job{Command: "sweep", Sweep: kind, Group: g, Options: o})
		}
	}
	jobs = append(jobs, serve.Job{Command: "cpistack", Options: o}, serve.Job{Command: "tournament", Options: o})
	for _, f := range []string{"5", "6", "7", "8", "11"} {
		jobs = append(jobs, serve.Job{Command: "figure", Figures: []string{f}, Options: o})
	}
	return jobs
}

// serveWarm is a closed loop of p.workers client connections against an
// in-process server on a loopback listener. Set-up fills an empty store
// with the job set; each timed round starts a fresh server with a fresh
// memo cache on that warm store, as a restarted `loadsched serve -store
// DIR` would, and re-submits the set in a seed-shuffled order.
type serveWarm struct {
	size     serveSize
	jobs     []serve.Job
	storeDir string
	want     []string // per job: digest of the records of its cold run
}

func newServeWarm(s serveSize) *serveWarm { return &serveWarm{size: s, jobs: s.jobSet()} }

// jobResult is one submitted job as the client saw it.
type jobResult struct {
	lat, first time.Duration // POST to done-line; POST to first record
	digest     string
	bytes      int
	counters   results.RunnerCounters
	err        error
}

// liveServer is one server incarnation on the store.
type liveServer struct {
	srv   *http.Server
	addr  string
	store *store.Store
	done  chan error
}

func startServer(dir string, workers int) (*liveServer, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	cache := runner.NewCache()
	cache.SetStore(st)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &liveServer{
		srv:   &http.Server{Handler: serve.New(serve.Config{Workers: workers, Cache: cache}).Handler()},
		addr:  ln.Addr().String(),
		store: st,
		done:  make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the server and waits for its accept loop to return.
func (s *liveServer) close() error {
	err := s.srv.Close()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		return serr
	}
	return err
}

// round starts a fresh server, submits the jobs in order over p.workers
// connections (each sends its next job when the previous one is done),
// stops the server and returns the round's wall time and per-job results.
func (w *serveWarm) round(p params, order []int, tr *tracer, round int) (time.Duration, []jobResult, store.Counters, error) {
	start := time.Now()
	ls, err := startServer(w.storeDir, p.workers)
	if err != nil {
		return 0, nil, store.Counters{}, err
	}
	out := make([]jobResult, len(w.jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(p.workers)
	for c := 0; c < p.workers; c++ {
		client := serve.NewClient(ls.addr)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = submit(client, w.jobs[i], tr, round*1000+i+1)
			}
		}()
	}
	for _, i := range order {
		next <- i
	}
	close(next)
	wg.Wait()
	err = ls.close()
	return time.Since(start), out, ls.store.Counters(), err
}

// submit runs one job through serve.Client.Do. The records are encoded and
// hashed for the oracle after the latency is taken.
func submit(c *serve.Client, job serve.Job, tr *tracer, id int) jobResult {
	var res jobResult
	var recs []results.Record
	span, end := tr.begin("serve.Client.Do", 0, id)
	_, endFirst := tr.begin("serve.first_record", span, id)
	start := time.Now()
	counters, err := c.Do(job, func(rec results.Record) error {
		if len(recs) == 0 {
			res.first = time.Since(start)
			endFirst()
		}
		recs = append(recs, rec)
		return nil
	})
	res.lat = time.Since(start)
	end()
	if err != nil {
		res.err = err
		return res
	}
	res.counters = *counters
	res.digest, res.bytes, res.err = recordsDigest(recs)
	return res
}

// recordsDigest hashes a job's records in order, as json.Marshal encodes
// each.
func recordsDigest(recs []results.Record) (string, int, error) {
	var all []byte
	for _, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			return "", 0, err
		}
		all = append(append(all, b...), '\n')
	}
	return digest(all), len(all), nil
}

// setup runs the job set once against an empty store and keeps each job's
// records as the warm rounds' expected output.
func (w *serveWarm) setup(p params) error {
	w.storeDir = filepath.Join(p.dir, "store")
	order := make([]int, len(w.jobs))
	for i := range order {
		order[i] = i
	}
	_, res, _, err := w.round(p, order, nil, 0)
	if err != nil {
		return err
	}
	w.want = make([]string, len(w.jobs))
	for i, jr := range res {
		if jr.err != nil {
			return fmt.Errorf("cold job %d (%s): %w", i, w.jobs[i].Command, jr.err)
		}
		w.want[i] = jr.digest
	}
	return nil
}

// checkWarmJob counts one warm job: it must succeed, stream the records of
// its cold run byte for byte, and simulate nothing.
func checkWarmJob(r *report, job serve.Job, jr jobResult, want string) {
	switch {
	case jr.err != nil:
		r.check(false, "%s %s%v: %v", job.Command, job.Sweep, job.Figures, jr.err)
	case jr.digest != want:
		r.check(false, "%s %s%v: records differ from the cold run", job.Command, job.Sweep, job.Figures)
	case jr.counters.Simulated != 0:
		r.check(false, "%s %s%v: warm job simulated %d jobs", job.Command, job.Sweep, job.Figures, jr.counters.Simulated)
	default:
		r.check(true, "")
	}
}

func (w *serveWarm) measure(p params, r *report) error {
	rng := rand.New(rand.NewSource(p.seed))
	order := make([]int, len(w.jobs))
	var walls []float64
	var lat, first, self []time.Duration
	var runnerJobs float64
	var bytes int
	var last []jobResult
	var lastWall time.Duration
	var lastStore store.Counters
	var untraced []float64
	err := runUnits(p, roundNominal, func(i int, tr *tracer) error {
		for j := range order {
			order[j] = j
		}
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		wall, res, sc, err := w.round(p, order, tr, i+1)
		if err != nil {
			return err
		}
		for j, jr := range res {
			checkWarmJob(r, w.jobs[j], jr, w.want[j])
		}
		if p.tr != nil && tr == nil {
			untraced = append(untraced, wall.Seconds())
			return nil
		}
		walls = append(walls, wall.Seconds())
		last, lastWall, lastStore = res, wall, sc
		for _, jr := range res {
			lat = append(lat, jr.lat)
			first = append(first, jr.first)
			runnerJobs += float64(jr.counters.Jobs)
			bytes += jr.bytes
		}
		if p.tr == nil {
			return nil
		}
		ds, err := w.inProcess(p, order)
		if err != nil {
			return err
		}
		for j, d := range ds {
			self = append(self, res[j].lat-d)
		}
		return nil
	})
	if err != nil {
		return err
	}
	total := sum(walls)
	jobs := float64(len(lat))
	if p.tr == nil {
		r.add("wall_s", "s", median(walls))
		// Nothing is simulated: this is the uops of the results the runner
		// answered (from its store) per second.
		r.add("sim_uops_per_s", "uops/s", runnerJobs*float64(w.size.Uops+w.size.Warmup)/total)
		r.add("jobs_per_s", "jobs/s", jobs/total)
		r.latency(lat)
		return nil
	}
	r.add("bench.tracing_overhead_frac", "ratio", median(walls)/median(untraced)-1)
	return w.layers(p, r, last, lastWall, lastStore, first, self, float64(bytes)/jobs)
}

// inProcess runs the job set in order through experiments, as the server's
// executor would, on a fresh memo cache over the warm store, and returns
// each job's duration by job index.
func (w *serveWarm) inProcess(p params, order []int) ([]time.Duration, error) {
	st, err := store.Open(w.storeDir)
	if err != nil {
		return nil, err
	}
	cache := runner.NewCache()
	cache.SetStore(st)
	out := make([]time.Duration, len(w.jobs))
	for _, i := range order {
		j := w.jobs[i]
		o := experiments.Options{Uops: j.Options.Uops, Warmup: j.Options.Warmup,
			TracesPerGroup: j.Options.TracesPerGroup, Pool: runner.NewIsolated(p.workers, cache)}
		start := time.Now()
		switch j.Command {
		case "sweep":
			_, err = experiments.SweepRecord(j.Sweep, j.Group, o)
		case "figure":
			_, err = experiments.FigureRecord("fig"+j.Figures[0], o)
		default:
			_, err = experiments.FigureRecord(j.Command, o)
		}
		out[i] = time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("in-process %s: %w", j.Command, err)
		}
	}
	return out, nil
}

// layers reports the traced run's per-layer metrics.
func (w *serveWarm) layers(p params, r *report, last []jobResult, wall time.Duration, sc store.Counters,
	first, self []time.Duration, bytesPerJob float64) error {
	var c results.RunnerCounters
	for _, jr := range last {
		c.Jobs += jr.counters.Jobs
		c.Simulated += jr.counters.Simulated
		c.MemoHits += jr.counters.MemoHits
		c.DiskHits += jr.counters.DiskHits
		c.Coalesced += jr.counters.Coalesced
		c.EngineBuilds += jr.counters.EngineBuilds
		c.EngineReuses += jr.counters.EngineReuses
		c.MapTasks += jr.counters.MapTasks
		c.SimMillis += jr.counters.SimMillis
	}
	r.add("runner.sim_s", "s", c.SimMillis/1000)
	r.add("runner.busy_frac", "ratio", c.SimMillis/1000/(float64(p.workers)*wall.Seconds()))
	runnerCounts(r, c.Jobs, c.Simulated, c.MemoHits, c.DiskHits, c.Coalesced, c.EngineBuilds, c.EngineReuses, c.MapTasks)

	prof := sweepProfiles(w.size.TracesPerGroup)[0]
	keyUs, keys, err := keyProbe(probeConfigs(w.size.Warmup), prof, w.size.Uops, w.size.Warmup)
	if err != nil {
		return err
	}
	r.add("runner.key_us", "us", keyUs)
	payloads, err := oooProbe(nil, prof, w.size.Uops, w.size.Warmup).payloads()
	if err != nil {
		return err
	}
	if err := storeProbe(p, r, keys, payloads); err != nil {
		return err
	}
	storeCounts(r, sc)
	r.addPct("serve.first_record_ms_p50", "ms", percentile(ms(first), 50))
	r.addPct("serve.self_ms_p50", "ms", percentile(ms(self), 50))
	r.add("serve.response_kb_per_job", "KB", bytesPerJob/1024)
	return nil
}

func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}
