package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/cwru-db/fgs/datasets"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct {
		p    float64
		want float64
		ok   bool
	}{
		{50, 50, true},
		{75, 75, true},
		{90, 90, true}, // exactly 10 samples above
		{91, 91, false},
		{99, 99, false},
		{100, 100, false},
	} {
		got, ok := percentile(xs, c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..100, %v) = %v, %v; want %v, %v", c.p, got, ok, c.want, c.ok)
		}
	}
	if xs[0] != 100 {
		t.Errorf("percentile sorted its input in place")
	}
	if _, ok := percentile(nil, 50); ok {
		t.Errorf("percentile of no samples is reportable")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{20, 50, true}, // rank 10, 10 above
		{19, 50, false},
		{40, 75, true},
		{39, 75, false},
		{100, 90, true},
		{99, 90, false},
		{1000, 99, true},
		{999, 99, false},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		_, ok := percentile(xs, c.p)
		if ok != c.want {
			t.Errorf("n=%d p%v reportable = %v, want %v", c.n, c.p, ok, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestFailuresCountAndMissTheLimit(t *testing.T) {
	rs := []response{
		{req: post("view", "/v1/view", "{}"), status: 200, latency: 5 * time.Millisecond},
		{req: post("view", "/v1/view", "{}"), status: 503, latency: time.Millisecond},
		{req: post("view", "/v1/view", "{}"), status: 504, latency: 2 * time.Millisecond},
		{req: post("view", "/v1/view", "{}"), status: 200, latency: 50 * time.Millisecond},
	}
	s := byClass(rs)["view"]
	if s.attempted() != 4 || s.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 4 and 2", s.attempted(), s.failed)
	}
	// Two fast failures still miss a generous limit; the slow success too.
	if got := s.missed(10 * time.Millisecond); got != 3 {
		t.Errorf("missed(10ms) = %d, want 3", got)
	}
	if got := s.missed(time.Second); got != 2 {
		t.Errorf("missed(1s) = %d, want 2 (the failures)", got)
	}
	// Failures sort above every success.
	if v, _ := percentile(s.ms, 75); !math.IsInf(v, 1) {
		t.Errorf("p75 with half the requests failed = %v, want +Inf", v)
	}
}

func TestTimeoutEndsTheRun(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { <-release })
	got := make(chan request, 1)
	c := &client{h: slow, timeout: 20 * time.Millisecond, onTimeout: func(r request, after time.Duration) {
		got <- r
		select {} // the real hook exits the process
	}}
	req := post("summarize", "/v1/summarize", `{"n":4}`)
	go c.do(req, false)
	select {
	case r := <-got:
		if r != req {
			t.Errorf("timeout reported %v, want %v", r, req)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a request past its timeout was not reported")
	}
}

func TestMetricNameGrammar(t *testing.T) {
	ms := newMetricSet()
	for _, ok := range []string{"setup_s", "mining.sumgen_ms", "obs.tracing_overhead_pct.latency_p50_ms", "a-b.c_d9"} {
		if err := ms.set(ok, "ms", 1, 1); err != nil {
			t.Errorf("set(%q): %v", ok, err)
		}
	}
	for _, bad := range []string{"", "_lead", ".lead", "has space", "semi;colon", "p90%", strings.Repeat("x", 65)} {
		if err := ms.set(bad, "ms", 1, 1); err == nil {
			t.Errorf("set(%q) accepted a name outside the grammar", bad)
		}
	}
	if err := ms.set("setup_s", "s", 2, 1); err == nil {
		t.Errorf("a repeated name was accepted")
	}
	if err := ms.set("nan_metric", "s", math.NaN(), 1); err == nil {
		t.Errorf("a NaN value was accepted")
	}
	for _, s := range perLayer {
		if !metricName.MatchString(s.name) {
			t.Errorf("per-layer metric %q is outside the grammar", s.name)
		}
	}
}

func TestInputsAreReproducible(t *testing.T) {
	if !reflect.DeepEqual(hubsRequests(3), hubsRequests(3)) || reflect.DeepEqual(hubsRequests(3), hubsRequests(4)) {
		t.Error("hubs request list is not a function of the seed")
	}
	g := datasets.LKISized(demoSeed, 3000)
	a, err := newIngestInputs(7, g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newIngestInputs(7, g)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newIngestInputs(8, g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different ingest inputs")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same ingest order")
	}
	// Seeds reorder one fixed set of edge sets, so every seed offers the
	// same work.
	set := func(in *ingestInputs) map[string]bool {
		m := map[string]bool{}
		for i := 0; i < 2*len(in.sets); i += 2 {
			m[in.batch(i).body] = true
		}
		return m
	}
	if !reflect.DeepEqual(set(a), set(c)) {
		t.Error("different seeds offer different edge sets")
	}
	// Each set is inserted, then deleted by the next batch.
	ins, del := a.batch(4), a.batch(5)
	if !strings.Contains(ins.body, `"insert"`) || !strings.Contains(del.body, `"delete"`) ||
		strings.TrimPrefix(ins.body, `{"insert"`) != strings.TrimPrefix(del.body, `{"delete"`) {
		t.Errorf("batch 5 does not delete what batch 4 inserted:\n%s\n%s", ins.body, del.body)
	}
}

func TestTracedHalfIsBalancedPerRequest(t *testing.T) {
	// A request list cycling with period 8 (as hubs does) must have each
	// request traced as often as not.
	traced := make([]int, 8)
	for i := 0; i < 64; i++ {
		if tracedCall(true, i) {
			traced[i%8]++
		}
	}
	for j, n := range traced {
		if n != 4 {
			t.Errorf("request %d of the cycle traced %d of 8 times", j, n)
		}
	}
	if tracedCall(false, 1) {
		t.Error("an untraced run traced a call")
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	root := span{id: 0, parent: -1, start: 0, end: 100}
	kids := []span{
		{parent: 0, start: 10, end: 40},
		{parent: 0, start: 30, end: 50},  // overlaps the first
		{parent: 0, start: 90, end: 120}, // runs past the parent
	}
	if got := selfTime(root, kids); got != 100-40-10 {
		t.Errorf("self = %v, want 50", got)
	}
}

func TestParseHWM(t *testing.T) {
	mb, err := parseHWM(strings.NewReader("Name:\tx\nVmPeak:\t 9 kB\nVmHWM:\t  204800 kB\n"))
	if err != nil || mb != 200 {
		t.Errorf("parseHWM = %v, %v; want 200", mb, err)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists in step with
// what the code reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("workloads %v, code has %v", names, have)
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer lists %d metrics, code reports %d", len(b.PerLayer), len(perLayer))
	}
	for i, s := range perLayer {
		if b.PerLayer[i].Name != s.name || b.PerLayer[i].Unit != s.unit {
			t.Errorf("per_layer[%d] = %v, code has %s %s", i, b.PerLayer[i], s.name, s.unit)
		}
	}
	want := []string{"setup_s/s", "peak_rss_mb/MB", "throughput_rps/1/s", "latency_p50_ms/ms", "latency_p75_ms/ms"}
	var got []string
	for _, m := range b.EndToEnd {
		got = append(got, m.Name+"/"+m.Unit)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end = %v, code reports %v", got, want)
	}
}
