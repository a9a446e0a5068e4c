// Command perfbench is the repository's benchmark. It boots the fgsd
// engine in process (fgs.NewServer(...).Handler(), no sockets), drives one
// workload's traffic against it, checks that the outputs are correct, and
// prints every metric by name and unit. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": 412, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through the wrapper, which builds it
// from the checkout's sources:
//
//	bash perfbench/run.sh --workload hubs --seed 1 --seconds 40 --trace 0
//
// --trace 0 measures the end-to-end metrics. --trace 1 also records the
// benchmark's own spans, replays the run's inputs through the library's
// public calls one layer at a time, and reports the per-layer metrics with
// self-time tables for one summarize and one update.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"
)

// wallBudget bounds a whole run, build excluded. A run that has not
// finished by then is reported as failed with the phase it was in.
const wallBudget = 170 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one benchmark invocation's state.
type run struct {
	opts   options
	cpus   int
	tr     *tracer // nil unless --trace 1
	layers *layerSet
	e2e    *metricSet

	mu        sync.Mutex
	phase     string
	attempted int
	failed    int
}

func (r *run) setPhase(p string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.phase = p
}

// count adds a load phase's responses to the run's totals.
func (r *run) count(rs []response) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, x := range rs {
		r.attempted++
		if !x.ok() {
			r.failed++
		}
	}
}

// abort ends the run as failed: the diagnosis goes to standard error, a
// failed result to standard output, and the process exits with status 1.
// It is the watchdog's path, taken when a request or the whole run is over
// its budget and the engine's work cannot be preempted.
func (r *run) abort(reason string) {
	r.mu.Lock()
	fmt.Fprintf(os.Stderr, "perfbench: FAILED workload=%s seed=%d phase=%q: %s\n", r.opts.workload, r.opts.seed, r.phase, reason)
	res := result{Correct: false, Attempted: r.attempted + 1, Failed: r.failed + 1, Metrics: map[string]metric{}}
	r.mu.Unlock()
	writeResult(os.Stdout, res)
	os.Exit(1)
}

// newClient returns a client whose overruns end the run.
func (r *run) newClient(h http.Handler, timeout time.Duration) *client {
	return &client{h: h, timeout: timeout, tr: r.tr, onTimeout: func(req request, after time.Duration) {
		r.abort(fmt.Sprintf("request over its %v budget (%v elapsed): %s", timeout, after.Round(time.Millisecond), req))
	}}
}

var workloads = []struct {
	name string
	run  func(r *run) error
}{
	{"hubs", runHubs},
	{"ingest", runIngest},
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: hubs or ingest")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: it orders the workload's fixed requests; the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 40, "how long the load phase measures")
	trace := flag.Int("trace", 0, "1 records spans, replays the run layer by layer, and reports per-layer metrics")
	flag.Parse()
	o.trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		os.Exit(2)
	}
	var fn func(r *run) error
	for _, w := range workloads {
		if w.name == o.workload {
			fn = w.run
		}
	}
	if fn == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have hubs, ingest)\n", o.workload)
		os.Exit(2)
	}

	cpus := runtime.NumCPU()
	runtime.GOMAXPROCS(cpus)
	r := &run{opts: o, cpus: cpus, layers: newLayerSet(), e2e: newMetricSet()}
	if o.trace {
		r.tr = newTracer()
	}
	watchdog := time.AfterFunc(wallBudget, func() { r.abort(fmt.Sprintf("run over its %v wall budget", wallBudget)) })
	err := fn(r)
	watchdog.Stop()

	res := result{Correct: err == nil, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]metric{}}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED workload=%s seed=%d phase=%q: %v\n", o.workload, o.seed, r.phase, err)
		writeResult(os.Stdout, res)
		os.Exit(1)
	}
	out := r.e2e
	if o.trace {
		var lerr error
		if out, lerr = r.layers.metrics(); lerr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", lerr)
			res.Correct = false
			writeResult(os.Stdout, res)
			os.Exit(1)
		}
	}
	printTable(os.Stdout, fmt.Sprintf("%s seed=%d", o.workload, o.seed), r.e2e, "end-to-end")
	if o.trace {
		printTable(os.Stdout, fmt.Sprintf("%s seed=%d", o.workload, o.seed), out, "per-layer")
		r.printSpanTables(os.Stdout)
	}
	for _, name := range out.order {
		res.Metrics[name] = out.byKey[name]
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	writeResult(os.Stdout, res)
	if !res.Correct {
		os.Exit(1)
	}
}

func writeResult(w io.Writer, res result) {
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(w, string(b))
}

// printTable writes a metric set as a text table with sample counts.
func printTable(w io.Writer, title string, ms *metricSet, kind string) {
	fmt.Fprintf(w, "== %s: %s metrics ==\n", title, kind)
	fmt.Fprintf(w, "  %-44s %14s %-8s %8s\n", "metric", "value", "unit", "samples")
	for _, name := range ms.order {
		m := ms.byKey[name]
		fmt.Fprintf(w, "  %-44s %14.4f %-8s %8d\n", name, m.Value, m.Unit, m.n)
	}
}

// printSpanTables prints the self-time tables of the traced run: one
// summarize and one update along their blocking paths (the served request's
// pipeline stages, then the replay of the same input through the library),
// next to the tracing overhead.
func (r *run) printSpanTables(w io.Writer) {
	for _, t := range []struct{ title, prefix string }{
		{"served summarize (Server-Timing stages)", "request summarize"},
		{"replayed summarize (library calls)", "summarize "},
		{"served update (Server-Timing stages)", "request update"},
		{"replayed update (library calls)", "update "},
	} {
		if s, ok := r.tr.firstRoot(t.prefix); ok {
			r.tr.writeTable(w, t.title+": "+s.name, s)
		} else {
			fmt.Fprintf(w, "%s: none in this workload\n", t.title)
		}
	}
	for _, name := range overheadMetrics {
		if m, ok := r.layers.value("obs.tracing_overhead_pct." + name); ok {
			fmt.Fprintf(w, "tracing overhead on %s: %+.2f%%\n", name, m)
		} else {
			fmt.Fprintf(w, "tracing overhead on %s: not reportable (too few samples)\n", name)
		}
	}
}
