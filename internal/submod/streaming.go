package submod

import (
	"github.com/cwru-db/fgs/internal/graph"
	"github.com/cwru-db/fgs/internal/obs"
)

// Decision describes what the streaming selector did with one arriving node.
type Decision int

// Streaming outcomes.
const (
	// Rejected: the node was not selected (it is kept in its group bucket
	// for post-processing).
	Rejected Decision = iota
	// Accepted: the node was added without evicting anyone.
	Accepted
	// Swapped: the node replaced an earlier selection (see Evicted).
	Swapped
)

// StreamResult reports the outcome of processing one node.
type StreamResult struct {
	Decision Decision
	// Evicted is the node removed on a swap; valid only when Decision is
	// Swapped.
	Evicted graph.NodeID
}

// Streamer is the streaming fair submodular selector of Section VI: nodes
// arrive one at a time; each is accepted when the partial selection is
// extendable (procedure ExtendableM), swapped in when its gain sufficiently
// exceeds the weight of a removable earlier pick (the swap rule of [17],
// gain(v) >= 2·w(v⁻)), and rejected otherwise. Rejected nodes are bucketed
// per group so post-processing can repair unmet lower bounds; a node is
// bucketed once, at its first rejection, however often it is re-streamed.
//
// The overall guarantee is the ¼-approximation of streaming fair submodular
// maximization that Theorem 6 builds on.
type Streamer struct {
	groups *Groups
	util   Utility
	n      int

	selected graph.NodeSet
	order    []graph.NodeID // insertion order, for deterministic output
	counts   []int
	weights  map[graph.NodeID]float64 // w(v) recorded at acceptance time
	buckets  [][]graph.NodeID         // per-group rejected nodes, first arrival order
	bucketed graph.NodeSet            // nodes currently in some bucket

	// Decision counters for ObsMetrics; plain ints — the streamer is not
	// concurrent.
	accepted, swapped, rejected, postAdded int64
}

// NewStreamer returns a streaming selector over the given groups, utility,
// and budget n. The utility's state is owned by the streamer from now on.
func NewStreamer(groups *Groups, util Utility, n int) *Streamer {
	util.Reset()
	return &Streamer{
		groups:   groups,
		util:     util,
		n:        n,
		selected: graph.NewNodeSet(n),
		counts:   make([]int, groups.Len()),
		weights:  make(map[graph.NodeID]float64, n),
		buckets:  make([][]graph.NodeID, groups.Len()),
		bucketed: graph.NewNodeSet(0),
	}
}

// Process handles one arriving group node and returns the decision. Nodes
// outside every group, or already selected, are rejected outright.
func (s *Streamer) Process(v graph.NodeID) StreamResult {
	gi, ok := s.groups.IndexOf(v)
	if !ok || s.selected.Has(v) {
		s.rejected++
		return StreamResult{Decision: Rejected}
	}
	w := s.util.Marginal(v)

	if len(s.order) < s.n && s.groups.ExtendableM(s.counts, gi, s.n) {
		s.accept(v, gi, w)
		s.accepted++
		return StreamResult{Decision: Accepted}
	}

	// Swap rule: find the removable selected node with the smallest recorded
	// weight whose eviction keeps the selection feasible after adding v.
	evict := graph.NodeID(-1)
	evictWeight := 0.0
	for _, u := range s.order {
		ui, _ := s.groups.IndexOf(u)
		if !s.groups.SwapFeasible(s.counts, ui, gi, s.n) {
			continue
		}
		if evict < 0 || s.weights[u] < evictWeight {
			evict = u
			evictWeight = s.weights[u]
		}
	}
	if evict >= 0 && w >= 2*evictWeight {
		s.remove(evict)
		s.accept(v, gi, w)
		s.swapped++
		return StreamResult{Decision: Swapped, Evicted: evict}
	}

	s.bucket(gi, v)
	s.rejected++
	return StreamResult{Decision: Rejected}
}

// bucket records a rejected node in its group's bucket unless it is there
// already. Inc-FGS re-streams every affected group node each batch, so
// without the membership check buckets would grow with the batch count.
func (s *Streamer) bucket(gi int, v graph.NodeID) {
	if s.bucketed.Has(v) {
		return
	}
	s.bucketed.Add(v)
	s.buckets[gi] = append(s.buckets[gi], v)
}

func (s *Streamer) accept(v graph.NodeID, gi int, w float64) {
	s.util.Add(v)
	s.selected.Add(v)
	s.order = append(s.order, v)
	s.counts[gi]++
	s.weights[v] = w
}

func (s *Streamer) remove(v graph.NodeID) {
	gi, _ := s.groups.IndexOf(v)
	s.util.Remove(v)
	s.selected.Remove(v)
	s.counts[gi]--
	delete(s.weights, v)
	for i, u := range s.order {
		if u == v {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// Selected returns the current selection in insertion order. The slice is a
// copy.
func (s *Streamer) Selected() []graph.NodeID {
	return append([]graph.NodeID(nil), s.order...)
}

// Counts returns the current per-group selection counts (a copy).
func (s *Streamer) Counts() []int { return append([]int(nil), s.counts...) }

// DeficientGroups lists groups whose selection count is below the lower
// bound; post-processing must repair these from the buckets.
func (s *Streamer) DeficientGroups() []int {
	var out []int
	for i := 0; i < s.groups.Len(); i++ {
		if s.counts[i] < s.groups.At(i).Lower {
			out = append(out, i)
		}
	}
	return out
}

// Bucket returns the rejected nodes of a group, each once, in order of first
// rejection.
func (s *Streamer) Bucket(gi int) []graph.NodeID { return s.buckets[gi] }

// PostSelect repairs unmet lower bounds from the buckets: for every deficient
// group it repeatedly adds the bucket node with the highest current marginal
// gain while the selection stays extendable. The paper's PostSelect does the
// same, enriching V_p (the caller then enriches P; see core.Online). It
// returns the nodes added.
func (s *Streamer) PostSelect() []graph.NodeID {
	var added []graph.NodeID
	for _, gi := range s.DeficientGroups() {
		need := s.groups.At(gi).Lower - s.counts[gi]
		for need > 0 {
			best := -1
			bestGain := -1.0
			for i, v := range s.buckets[gi] {
				if s.selected.Has(v) {
					continue
				}
				if g := s.util.Marginal(v); g > bestGain {
					bestGain = g
					best = i
				}
			}
			if best < 0 || !s.groups.ExtendableM(s.counts, gi, s.n) {
				break
			}
			v := s.buckets[gi][best]
			s.buckets[gi] = append(s.buckets[gi][:best], s.buckets[gi][best+1:]...)
			s.bucketed.Remove(v)
			s.accept(v, gi, s.util.Marginal(v))
			s.postAdded++
			added = append(added, v)
			need--
		}
	}
	return added
}

// Value returns the utility of the current selection.
func (s *Streamer) Value() float64 { return s.util.Value() }

// ObsMetrics snapshots the streamer's decision counters and per-group
// selection progress, implementing obs.Source.
func (s *Streamer) ObsMetrics() []obs.Metric {
	out := []obs.Metric{
		{Name: "fgs_stream_decisions_total", Help: "Streaming selector decisions by kind.", Kind: obs.KindCounter, Labels: []obs.Label{{Key: "decision", Val: "accepted"}}, Value: float64(s.accepted)},
		{Name: "fgs_stream_decisions_total", Kind: obs.KindCounter, Labels: []obs.Label{{Key: "decision", Val: "swapped"}}, Value: float64(s.swapped)},
		{Name: "fgs_stream_decisions_total", Kind: obs.KindCounter, Labels: []obs.Label{{Key: "decision", Val: "rejected"}}, Value: float64(s.rejected)},
		{Name: "fgs_stream_post_added_total", Help: "Nodes added by PostSelect to repair lower bounds.", Kind: obs.KindCounter, Value: float64(s.postAdded)},
	}
	for gi := 0; gi < s.groups.Len(); gi++ {
		out = append(out, obs.Metric{
			Name:   "fgs_stream_selected",
			Help:   "Current per-group selection count in the streaming selector.",
			Kind:   obs.KindGauge,
			Labels: []obs.Label{{Key: "group", Val: s.groups.At(gi).Name}},
			Value:  float64(s.counts[gi]),
		})
	}
	return out
}
