package pattern

import (
	"runtime"
	"sync"

	"github.com/cwru-db/fgs/internal/graph"
)

// Workers controls CoverAmong's parallelism: 0 or 1 evaluates sequentially;
// higher values split large candidate lists across that many goroutines.
// The matcher itself is stateless during a search (the graph is read-only),
// so results are identical and in the same order either way.
//
// The requested count is clamped to runtime.GOMAXPROCS(0) *at call time* —
// more goroutines than schedulable threads only add overhead. The clamped
// value is what m.workers stores, so coverAmongParallel always fans out to
// exactly the clamped count; callers reading back the effective parallelism
// should account for the clamp rather than assume their requested n.
//
// Parallelism is opt-in (default sequential) so the efficiency experiments
// remain comparable with the paper's single-threaded measurements.
func (m *Matcher) SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	max := runtime.GOMAXPROCS(0)
	if n > max {
		n = max
	}
	m.workers = n
}

// parallelThreshold is the candidate count below which parallel evaluation
// is not worth the goroutine overhead.
const parallelThreshold = 256

// coverAmongParallel evaluates candidates across m.workers goroutines,
// preserving input order in the result.
func (m *Matcher) coverAmongParallel(c *compiled, candidates []graph.NodeID) []graph.NodeID {
	matched := make([]bool, len(candidates))
	var wg sync.WaitGroup
	chunk := (len(candidates) + m.workers - 1) / m.workers
	for w := 0; w < m.workers; w++ {
		lo := w * chunk
		if lo >= len(candidates) {
			break
		}
		hi := lo + chunk
		if hi > len(candidates) {
			hi = len(candidates)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				v := candidates[i]
				if !c.nodeOK(m.g, c.focus, v) {
					continue
				}
				found := false
				m.search(c, v, func(*searchScratch) bool { found = true; return false }, nil)
				matched[i] = found
			}
		}(lo, hi)
	}
	wg.Wait()
	// Size the result exactly from the matched count: the len/4 guess this
	// replaces forced append-regrowth on selective patterns and wasted
	// capacity on broad ones.
	count := 0
	for _, ok := range matched {
		if ok {
			count++
		}
	}
	out := make([]graph.NodeID, 0, count)
	for i, ok := range matched {
		if ok {
			out = append(out, candidates[i])
		}
	}
	return out
}
