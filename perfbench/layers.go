package main

import (
	"fmt"
	"sync"
)

// layerSpec is one per-layer metric: its unit and how its samples combine.
// Times take the median of their samples; counts and ratios the mean.
type layerSpec struct {
	name, unit string
	median     bool
}

// perLayer lists every per-layer metric a traced run reports, grouped by
// the module it measures. A traced run prints all of them on every
// workload; a layer the workload does not exercise reads 0 with 0 samples.
// BENCHMARK.json's per_layer list must name exactly these.
var perLayer = []layerSpec{
	// mining: SumGen and the E_v^r cache, replayed on each summarize's V_p.
	{"mining.sumgen_ms", "ms", true},
	{"mining.er_warm_ms", "ms", true},
	{"mining.candidates", "count", false},
	{"mining.ercache_hit_ratio", "ratio", false},
	// pattern: the matcher over each mined candidate.
	{"pattern.match_ms", "ms", true},
	{"pattern.embeddings", "count", false},
	{"pattern.expansions", "count", false},
	{"pattern.searches", "count", false},
	// graph: decode, replica clone, r-hop neighbourhood of V_p, edge edits.
	{"graph.decode_s", "s", true},
	{"graph.clone_s", "s", true},
	{"graph.rhop_ms", "ms", true},
	{"graph.rhop_edges", "count", false},
	{"graph.mutate_us", "us", true},
	// submod: fair selection of V_p.
	{"submod.fair_select_ms", "ms", true},
	// core: the algorithms and the maintained summary.
	{"core.apxfgs_ms", "ms", true},
	{"core.kapxfgs_ms", "ms", true},
	{"core.cover_ms", "ms", true},
	{"core.write_json_ms", "ms", true},
	{"core.apply_ms", "ms", true},
	{"core.query_view_ms", "ms", true},
	{"core.new_maintainer_s", "s", true},
	{"core.resume_s", "s", true},
	// server: pipeline stages from Server-Timing, counters from /metrics.
	{"server.cache_hit_ratio", "ratio", false},
	{"server.admission_wait_ms", "ms", true},
	{"server.pin_ms", "ms", true},
	{"server.compute_ms", "ms", true},
	{"server.encode_ms", "ms", true},
	{"server.handler_overhead_ms", "ms", true},
	{"server.rejected", "count", false},
	{"server.mvcc_publish_us", "us", false},
	{"server.mvcc_writer_waits", "count", false},
	{"server.mvcc_clones", "count", false},
	// store: WAL, snapshots, and recovery.
	{"store.appends_per_fsync", "ratio", false},
	{"store.fsync_us", "us", false},
	{"store.snapshot_ms", "ms", false},
	{"store.snapshots", "count", false},
	{"store.open_s", "s", true},
	{"store.replayed_records", "count", false},
	// obs: what the benchmark's own spans cost, traced vs untraced requests.
	{"obs.tracing_overhead_pct.latency_p50_ms", "%", false},
	{"obs.tracing_overhead_pct.latency_p75_ms", "%", false},
	{"obs.tracing_overhead_pct.setup_s", "%", false},
	// loadgen: whether the run was valid, and the inputs' properties.
	{"loadgen.ops", "count", false},
	{"loadgen.late_ms", "ms", false},
	{"loadgen.error_rate", "ratio", false},
	{"loadgen.limit_miss_ratio", "ratio", false},
	{"loadgen.summarize_hit_share", "ratio", false},
	{"loadgen.write_share", "ratio", false},
	// req: latency per request class, next to the gated mix.
	{"req.summarize_p50_ms", "ms", false},
	{"req.summarize_p90_ms", "ms", false},
	{"req.summarize_rps", "1/s", false},
	{"req.view_p50_ms", "ms", false},
	{"req.view_p90_ms", "ms", false},
	{"req.update_p50_ms", "ms", false},
	{"req.update_p90_ms", "ms", false},
	{"req.update_rps", "1/s", false},
	{"req.recover_s", "s", false},
}

// overheadMetrics are the end-to-end metrics the tracing overhead is
// measured on.
var overheadMetrics = []string{"latency_p50_ms", "latency_p75_ms", "setup_s"}

// layerSet collects per-layer samples; add is safe for concurrent use.
type layerSet struct {
	mu      sync.Mutex
	samples map[string][]float64
}

func newLayerSet() *layerSet { return &layerSet{samples: map[string][]float64{}} }

func (l *layerSet) add(name string, v float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.samples[name] = append(l.samples[name], v)
}

// value is the metric's combined value, if it has samples.
func (l *layerSet) value(name string) (float64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	xs := l.samples[name]
	if len(xs) == 0 {
		return 0, false
	}
	for _, s := range perLayer {
		if s.name == name && s.median {
			return median(xs), true
		}
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), true
}

// metrics renders every per-layer metric. A sample under a name that is
// not in perLayer is a bug and is reported.
func (l *layerSet) metrics() (*metricSet, error) {
	known := map[string]bool{}
	out := newMetricSet()
	for _, s := range perLayer {
		known[s.name] = true
		v, _ := l.value(s.name)
		l.mu.Lock()
		n := len(l.samples[s.name])
		l.mu.Unlock()
		if err := out.set(s.name, s.unit, v, n); err != nil {
			return nil, err
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for name := range l.samples {
		if !known[name] {
			return nil, fmt.Errorf("per-layer sample under unlisted metric %q", name)
		}
	}
	return out, nil
}
