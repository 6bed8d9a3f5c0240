package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer keeps the spans of a traced run in memory; write saves them when
// the run ends. A nil *tracer records nothing, so untraced runs pay one
// nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// span is one timed call into a layer. Parent is the ID of the span that
// caused it (0 for none); spans of one job share Job.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Job    int    `json:"job,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID and a function that closes it.
func (t *tracer) begin(name string, parent, job int) (int, func()) {
	if t == nil {
		return 0, func() {}
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name, Start: int64(time.Since(t.t0))})
	t.mu.Unlock()
	return id, func() {
		end := int64(time.Since(t.t0))
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its children cover. Children may overlap one another
// (two workers under one parent): the covered part is their union, so
// overlapping time is subtracted once.
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, children []span) time.Duration {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	total += curHi - curLo
	return time.Duration(total)
}

// write saves the spans, with self times, and the run's metrics as one
// JSON file under the build directory and returns its path.
func (t *tracer) write(p params, r report) (string, error) {
	spans := t.snapshot()
	self := selfTimes(spans)
	type out struct {
		span
		SelfNs int64 `json:"self_ns"`
	}
	doc := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Metrics  map[string]float64 `json:"metrics"`
		Spans    []out              `json:"spans"`
	}{Workload: p.workload, Seed: p.seed, Metrics: map[string]float64{}}
	for _, m := range r.metrics {
		doc.Metrics[m.name] = m.value
	}
	for _, s := range spans {
		doc.Spans = append(doc.Spans, out{s, int64(self[s.ID])})
	}
	dir := filepath.Join(buildDir(), "perfbench", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", p.workload, p.seed))
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
