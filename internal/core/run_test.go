package core

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/cwru-db/fgs/internal/obs"
)

// statsView is the span-tree oracle for runObs.stats: it merges the
// completed direct children of the given root span by name, in
// first-execution order, from the full span log. Filtering on the parent id
// keeps runs sharing one trace from leaking into each other's Stats.
func statsView(tr *obs.Trace, rootID int32, candidates, windows int) Stats {
	st := Stats{Candidates: candidates, Windows: windows}
	for _, rec := range tr.Records() {
		if rec.Parent != rootID || !rec.Done {
			continue
		}
		found := false
		for i := range st.Phases {
			if st.Phases[i].Name == rec.Name {
				st.Phases[i].Time += rec.Dur
				st.Phases[i].Count++
				found = true
				break
			}
		}
		if !found {
			st.Phases = append(st.Phases, PhaseStat{Name: rec.Name, Time: rec.Dur, Count: 1})
		}
	}
	return st
}

// TestMaintainerStatsBounded: a maintainer without a caller trace keeps no
// growing span log, and its folded Stats agree with statsView over a
// caller-supplied trace of the same run, phase for phase.
func TestMaintainerStatsBounded(t *testing.T) {
	_, _, m, sets := growthFixture(t, Config{R: 2, N: 20})
	if m.run.tr != nil {
		t.Fatal("a maintainer without a caller trace must not keep a span log")
	}
	for i := 0; i < 200; i++ {
		applyCycle(t, m, sets, i)
	}
	if m.run.tr != nil {
		t.Fatal("a span log appeared")
	}

	tr := obs.NewTrace(&stepClock{})
	_, _, traced, sets := growthFixture(t, Config{R: 2, N: 20, Obs: &obs.Observer{Trace: tr}})
	for i := 0; i < 200; i++ {
		sum := applyCycle(t, traced, sets, i)
		want := statsView(tr, traced.run.root.ID(), sum.Stats.Candidates, sum.Stats.Windows)
		if !reflect.DeepEqual(sum.Stats, want) {
			t.Fatalf("batch %d: folded stats %+v, span-tree view %+v", i, sum.Stats, want)
		}
	}
	if n := tr.Len(); n < 200 {
		t.Fatalf("caller-supplied trace holds %d spans after 200 batches; it must be left untrimmed", n)
	}
}

// stepClock advances one microsecond per reading, so every span has a
// distinct, reproducible duration.
type stepClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(time.Microsecond)
	return c.t
}
