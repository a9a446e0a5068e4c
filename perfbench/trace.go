package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/cwru-db/fgs/internal/core"
	"github.com/cwru-db/fgs/internal/obs"
)

// The benchmark's own spans. They are recorded only in a traced run, around
// the benchmark's calls into the engine (each traced request, with its
// Server-Timing stages as children) and around each public call the replay
// makes; nothing inside the program is instrumented. Spans stay in memory
// and are printed as self-time tables when the run ends.

type span struct {
	id, parent int // parent -1: a root
	name       string
	start, end time.Duration // since the tracer's origin
}

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id; finish closes it.
func (t *tracer) begin(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, start: time.Since(t.t0), end: -1})
	return id
}

func (t *tracer) finish(id int) {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = now
}

// timed runs f inside a span named name under parent and returns how long
// it took.
func (t *tracer) timed(name string, parent int, f func()) time.Duration {
	id := t.begin(name, parent)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	t.finish(id)
	return d
}

// stageOrder is the request pipeline order of the top-level Server-Timing
// stages. Pinning the read view and resolving the partition happen inside
// compute, so they are nested under it; a call without a compute stage
// (stats) pins at the top level.
var stageOrder = []string{"cache", "admission", "compute", "encode"}

// topStages sums the stages that do not nest, so the rest of a call's
// latency is the handler's own overhead.
func topStages(stages map[string]time.Duration) time.Duration {
	var sum time.Duration
	for _, st := range stageOrder {
		sum += stages[st]
	}
	if _, ok := stages["compute"]; !ok {
		sum += stages["pin"]
	}
	return sum
}

// request records one traced call as a root span with a child per
// Server-Timing stage, laid out back to back in pipeline order.
func (t *tracer) request(class string, start time.Time, d time.Duration, timing string) {
	stages := obs.ParseServerTiming(timing)
	t.mu.Lock()
	defer t.mu.Unlock()
	off := start.Sub(t.t0)
	root := t.add("request "+class, -1, off, d)
	at := off
	for _, st := range stageOrder {
		sd, ok := stages[st]
		if !ok {
			continue
		}
		id := t.add("server."+st, root, at, sd)
		if st == "compute" {
			inner := at
			for _, sub := range []string{"pin", "partition"} {
				if pd, ok := stages[sub]; ok {
					t.add("server."+sub, id, inner, pd)
					inner += pd
				}
			}
		}
		at += sd
	}
	if _, ok := stages["compute"]; !ok {
		if pd, ok := stages["pin"]; ok {
			t.add("server.pin", root, at, pd)
		}
	}
}

// add appends a closed span; the caller holds mu.
func (t *tracer) add(name string, parent int, start, d time.Duration) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, start: start, end: start + d})
	return id
}

// phases lays a core run's phases (select, mine, summarize), as the run's
// Stats measured them, back to back under the span that ran it.
func (t *tracer) phases(parent int, st core.Stats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	at := t.spans[parent].start
	for _, p := range st.Phases {
		t.add("core."+p.Name, parent, at, p.Time)
		at += p.Time
	}
}

// firstRoot returns the earliest root span whose name starts with prefix.
func (t *tracer) firstRoot(prefix string) (span, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.parent == -1 && s.end >= 0 && strings.HasPrefix(s.name, prefix) {
			return s, true
		}
	}
	return span{}, false
}

func (t *tracer) children(id int) []span {
	var out []span
	for _, s := range t.spans {
		if s.parent == id && s.end >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTime is a span's duration minus the part of it its children cover.
// Children may overlap (parallel work), so their union is subtracted.
func selfTime(s span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.start, s.start), min(k.end, s.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered := time.Duration(0)
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			covered += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b - cur.a
	}
	return s.end - s.start - covered
}

// writeTable prints the span tree under root with each span's total and
// self time and the self time's share of the root.
func (t *tracer) writeTable(w io.Writer, title string, root span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	total := root.end - root.start
	fmt.Fprintf(w, "%s (%.3f ms)\n", title, ms(total))
	fmt.Fprintf(w, "  %-40s %12s %12s %7s\n", "span", "total_ms", "self_ms", "self%")
	var walk func(s span, depth int)
	walk = func(s span, depth int) {
		kids := t.children(s.id)
		self := selfTime(s, kids)
		share := 0.0
		if total > 0 {
			share = 100 * float64(self) / float64(total)
		}
		fmt.Fprintf(w, "  %-40s %12.3f %12.3f %6.1f%%\n", strings.Repeat("  ", depth)+s.name, ms(s.end-s.start), ms(self), share)
		for _, k := range kids {
			walk(k, depth+1)
		}
	}
	walk(root, 0)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
