package main

import "fmt"

// metricDef names one metric of BENCHMARK.json (a test keeps the two in
// step).
type metricDef struct{ name, unit string }

// endToEnd are the untraced metrics; every workload reports every one.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_uops_per_s", "uops/s"},
	{"jobs_per_s", "jobs/s"},
	{"job_p50_ms", "ms"},
	{"job_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A workload that never reaches a
// layer reports its metrics as 0 (README.md lists which workloads reach
// which layer).
var perLayer = []metricDef{
	{"ooo.ns_per_uop", "ns/uop"},
	{"ooo.ns_per_cycle", "ns/cycle"},
	{"ooo.allocs_per_kuop", "allocs/kuop"},
	{"ooo.cycles_per_uop", "cycles/uop"},
	{"trace.record_ns_per_uop", "ns/uop"},
	{"trace.write_ns_per_uop", "ns/uop"},
	{"trace.stream_ns_per_uop", "ns/uop"},
	{"trace.sidecar_ns_per_uop", "ns/uop"},
	{"trace.open_scan_ms", "ms"},
	{"trace.resident_mb", "MB"},
	{"runner.sim_s", "s"},
	{"runner.busy_frac", "ratio"},
	{"runner.jobs", "count"},
	{"runner.simulated", "count"},
	{"runner.memo_hits", "count"},
	{"runner.disk_hits", "count"},
	{"runner.coalesced", "count"},
	{"runner.engine_builds", "count"},
	{"runner.engine_reuses", "count"},
	{"runner.map_tasks", "count"},
	{"runner.key_us", "us"},
	{"store.get_us_p50", "us"},
	{"store.get_us_p99", "us"},
	{"store.put_us_p50", "us"},
	{"store.hits", "count"},
	{"store.misses", "count"},
	{"store.writes", "count"},
	{"store.corrupt", "count"},
	{"store.write_errors", "count"},
	{"serve.first_record_ms_p50", "ms"},
	{"serve.self_ms_p50", "ms"},
	{"serve.response_kb_per_job", "KB"},
	{"experiments.fig5_s", "s"},
	{"experiments.fig6_s", "s"},
	{"experiments.fig7_s", "s"},
	{"experiments.fig8_s", "s"},
	{"experiments.fig9_s", "s"},
	{"experiments.fig10_s", "s"},
	{"experiments.fig11_s", "s"},
	{"experiments.fig12_s", "s"},
	{"results.encode_ms", "ms"},
	{"go.alloc_mb", "MB"},
	{"go.gc_count", "count"},
	{"go.gc_pause_ms", "ms"},
	{"bench.tracing_overhead_frac", "ratio"},
}

// complete checks r against defs: every reported metric must be one of
// them with its unit, and metrics not reported are added as 0 when
// zeroMissing is set and are an error otherwise. The result is in defs
// order.
func complete(r *report, defs []metricDef, zeroMissing bool) error {
	got := map[string]metric{}
	for _, m := range r.metrics {
		if _, dup := got[m.name]; dup {
			return fmt.Errorf("metric %s reported twice", m.name)
		}
		got[m.name] = m
	}
	out := make([]metric, 0, len(defs))
	for _, d := range defs {
		m, ok := got[d.name]
		switch {
		case !ok && !zeroMissing:
			return fmt.Errorf("metric %s not reported", d.name)
		case !ok:
			m = metric{d.name, d.unit, 0}
		case m.unit != d.unit:
			return fmt.Errorf("metric %s reported in %s, want %s", d.name, m.unit, d.unit)
		}
		delete(got, d.name)
		out = append(out, m)
	}
	for name := range got {
		return fmt.Errorf("metric %s is not in the benchmark's list", name)
	}
	r.metrics = out
	return nil
}
