package core

import (
	"slices"
	"sync"
	"time"

	"github.com/cwru-db/fgs/internal/obs"
)

// Span taxonomy (DESIGN.md §8): each algorithm run is a root span named
// after the algorithm, with one child span per pipeline phase.
const (
	PhaseSelect    = "select"
	PhaseMine      = "mine"
	PhaseSummarize = "summarize"
)

// runObs carries one algorithm run's observability state. Stats are folded
// from the phase spans as each one ends, so reading them costs O(phases)
// however long the run lives — the Maintainer's run lasts its whole
// lifetime, one batch after another. With a caller-supplied trace every
// span lands there in full and stays (the trace is the caller's to keep or
// drop); without one no span log is kept at all and phases are timed from
// the clock alone, so memory stays flat over an unbounded run.
type runObs struct {
	tr    *obs.Trace    // caller-supplied trace, nil when none
	clock obs.Clock     // times phases when there is no trace
	reg   *obs.Registry // nil when no collector is installed
	root  obs.Span      // inert without a caller trace

	mu     sync.Mutex  // Stats may be read while a phase ends elsewhere
	phases []PhaseStat // merged by name, in order of first completion
}

// startRun opens the root span for one algorithm run. When the observer
// carries a trace, spans land there (and show up in -fgs.trace exports).
func startRun(o *obs.Observer, name string) *runObs {
	tr := o.GetTrace()
	return &runObs{tr: tr, clock: o.GetClock(), reg: o.GetReg(), root: tr.Start(name)}
}

// phaseSpan is one open pipeline phase; End folds its duration into the
// run's Stats.
type phaseSpan struct {
	r     *runObs
	sp    obs.Span
	name  string
	start time.Time // set only without a caller trace
}

// phase opens a child span for one pipeline phase.
func (r *runObs) phase(name string) phaseSpan {
	p := phaseSpan{r: r, sp: r.root.Child(name), name: name}
	if r.tr == nil {
		p.start = r.clock.Now()
	}
	return p
}

// SetArg annotates the phase's span (dropped without a caller trace).
func (p phaseSpan) SetArg(key string, val int64) { p.sp.SetArg(key, val) }

// End closes the phase and folds its duration into the run's Stats: the
// span's own measured duration when traced, the clock's otherwise.
func (p phaseSpan) End() {
	d := p.sp.End()
	if p.r.tr == nil {
		d = p.r.clock.Now().Sub(p.start)
	}
	p.r.fold(p.name, d)
}

// fold adds one completed phase span to the running totals. The algorithms
// run their phases one after another, so order of first completion is
// first-execution order.
func (r *runObs) fold(name string, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := slices.IndexFunc(r.phases, func(f PhaseStat) bool { return f.Name == name })
	if i < 0 {
		r.phases = append(r.phases, PhaseStat{Name: name})
		i = len(r.phases) - 1
	}
	r.phases[i].Time += d
	r.phases[i].Count++
}

// register adds a metrics source to the run's registry (no-op when none).
func (r *runObs) register(s obs.Source) { r.reg.Register(s) }

// finish closes the root span and returns the run's Stats.
func (r *runObs) finish(candidates, windows int) Stats {
	r.root.End()
	return r.stats(candidates, windows)
}

// abort closes the root span without deriving Stats — for error returns
// that bail out before the run completes, so the root span is never left
// open in the trace (and in any caller-supplied Observer's export).
func (r *runObs) abort() { r.root.End() }

// stats returns the folded Stats without closing the root — streaming
// algorithms expose progress mid-run. Phases are merged by name, in
// first-execution order, exactly as the completed direct children of the
// root span would merge (statsView in the tests checks this).
func (r *runObs) stats(candidates, windows int) Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{Phases: slices.Clone(r.phases), Candidates: candidates, Windows: windows}
}
