package submod

import (
	"math/rand"
	"testing"

	"github.com/cwru-db/fgs/internal/graph"
)

func TestStreamerAcceptsWhileExtendable(t *testing.T) {
	g := ratingsGraph(t, []float64{5, 4, 3, 2, 1, 1})
	groups, _ := NewGroups(
		Group{Name: "a", Members: []graph.NodeID{0, 1, 2}, Lower: 1, Upper: 2},
		Group{Name: "b", Members: []graph.NodeID{3, 4, 5}, Lower: 1, Upper: 2},
	)
	s := NewStreamer(groups, NewRatingSum(g, "rating"), 3)
	if r := s.Process(0); r.Decision != Accepted {
		t.Fatalf("first node decision = %v", r.Decision)
	}
	if r := s.Process(3); r.Decision != Accepted {
		t.Fatalf("cross-group accept failed: %v", r.Decision)
	}
	if r := s.Process(1); r.Decision != Accepted {
		t.Fatalf("third accept failed: %v", r.Decision)
	}
	if got := len(s.Selected()); got != 3 {
		t.Fatalf("selected %d, want 3", got)
	}
}

func TestStreamerRejectsNonGroupAndDuplicate(t *testing.T) {
	g := ratingsGraph(t, []float64{5, 4})
	groups, _ := NewGroups(Group{Name: "a", Members: []graph.NodeID{0}, Lower: 0, Upper: 1})
	s := NewStreamer(groups, NewRatingSum(g, "rating"), 1)
	if r := s.Process(1); r.Decision != Rejected {
		t.Fatal("non-group node accepted")
	}
	s.Process(0)
	if r := s.Process(0); r.Decision != Rejected {
		t.Fatal("duplicate accepted")
	}
}

func TestStreamerSwapRule(t *testing.T) {
	// Budget 1, single group. First node has weight 1; a node with marginal
	// >= 2 must swap in; a node with marginal < 2x must not.
	g := ratingsGraph(t, []float64{1, 1.5, 3})
	groups, _ := NewGroups(Group{Name: "a", Members: []graph.NodeID{0, 1, 2}, Lower: 0, Upper: 1})
	s := NewStreamer(groups, NewRatingSum(g, "rating"), 1)
	if r := s.Process(0); r.Decision != Accepted {
		t.Fatal("seed accept failed")
	}
	if r := s.Process(1); r.Decision != Rejected {
		t.Fatal("1.5 < 2*1 should be rejected")
	}
	r := s.Process(2)
	if r.Decision != Swapped || r.Evicted != 0 {
		t.Fatalf("3 >= 2*1 should swap out node 0: %+v", r)
	}
	sel := s.Selected()
	if len(sel) != 1 || sel[0] != 2 {
		t.Fatalf("selection after swap = %v", sel)
	}
	if s.Value() != 3 {
		t.Fatalf("value after swap = %v", s.Value())
	}
}

func TestStreamerSwapRespectsGroupFeasibility(t *testing.T) {
	// Group a at upper bound 1; a huge-gain node from a cannot swap out the
	// b node (b would drop below its reachable lower bound handling), but can
	// swap out the a node.
	g := ratingsGraph(t, []float64{1, 1, 100})
	groups, _ := NewGroups(
		Group{Name: "a", Members: []graph.NodeID{0, 2}, Lower: 1, Upper: 1},
		Group{Name: "b", Members: []graph.NodeID{1}, Lower: 1, Upper: 1},
	)
	s := NewStreamer(groups, NewRatingSum(g, "rating"), 2)
	s.Process(0)
	s.Process(1)
	r := s.Process(2)
	if r.Decision != Swapped || r.Evicted != 0 {
		t.Fatalf("expected swap evicting the group-a node, got %+v (evicted %d)", r.Decision, r.Evicted)
	}
	counts := s.Counts()
	if counts[0] != 1 || counts[1] != 1 {
		t.Fatalf("counts after swap = %v", counts)
	}
}

func TestStreamerBucketsAndPostSelect(t *testing.T) {
	// Stream order starves group b: budget fills with a-nodes first (b's
	// lower bound is 0 here so they are accepted), then PostSelect must pull
	// the best rejected b node... Construct: lower bound of b is 1 but all b
	// nodes arrive after budget is full with high-weight a nodes that cannot
	// be swapped (weights too high).
	g := ratingsGraph(t, []float64{10, 9, 1, 1.2})
	groups, _ := NewGroups(
		Group{Name: "a", Members: []graph.NodeID{0, 1}, Lower: 0, Upper: 2},
		Group{Name: "b", Members: []graph.NodeID{2, 3}, Lower: 1, Upper: 1},
	)
	n := 3
	s := NewStreamer(groups, NewRatingSum(g, "rating"), n)
	s.Process(0)
	s.Process(1)
	// b nodes: extendable (budget has room), accepted directly. To force the
	// bucket path, fill the budget with a reserve-aware state: after 0,1 the
	// reserve is 2 + max(0,1)=3 <= 3, so a b node is accepted. Process b
	// first to occupy, then the second b is rejected by upper bound.
	if r := s.Process(2); r.Decision != Accepted {
		t.Fatalf("b node should be accepted: %v", r.Decision)
	}
	if r := s.Process(3); r.Decision != Rejected {
		t.Fatalf("second b node should be rejected (upper=1): %v", r.Decision)
	}
	if len(s.Bucket(1)) != 1 {
		t.Fatalf("bucket(1) = %v", s.Bucket(1))
	}
	if len(s.DeficientGroups()) != 0 {
		t.Fatalf("no group should be deficient: %v", s.DeficientGroups())
	}
}

func TestStreamerPostSelectRepairsLowerBound(t *testing.T) {
	// b nodes have tiny weights and arrive early; a nodes swap them out...
	// Simpler: budget 2, groups a[0,2] b[1,1]; stream only a nodes first
	// until full, with b nodes arriving later unable to swap (low gain) —
	// they land in the bucket, leaving b deficient; PostSelect must repair.
	g := ratingsGraph(t, []float64{10, 9, 0.5, 0.1})
	groups, _ := NewGroups(
		Group{Name: "a", Members: []graph.NodeID{0, 1}, Lower: 0, Upper: 2},
		Group{Name: "b", Members: []graph.NodeID{2, 3}, Lower: 1, Upper: 1},
	)
	s := NewStreamer(groups, NewRatingSum(g, "rating"), 2)
	s.Process(0) // accepted
	s.Process(1) // reserve: adding a second a gives max(2,0)+max(0,1)=3 > 2: rejected!
	// So node 1 is actually bucketed; stream b next.
	if got := s.Counts()[0]; got != 1 {
		t.Fatalf("counts[a] = %d, want 1 (reserve should hold a slot for b)", got)
	}
	s.Process(2) // b accepted
	if len(s.DeficientGroups()) != 0 {
		t.Fatal("b should be satisfied now")
	}
	// Now force deficiency in a fresh streamer by never streaming b.
	s2 := NewStreamer(groups, NewRatingSum(g, "rating"), 2)
	s2.Process(0)
	s2.Process(1)
	if got := s2.DeficientGroups(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("DeficientGroups = %v, want [1]", got)
	}
	// Bucket b nodes manually via Process (rejected: not extendable? b IS
	// extendable... Process(2) would accept). Deficiency repair applies when
	// the caller streams rejected nodes: simulate by bucketing then repair.
	s2.Process(2) // accepted, repairs deficiency inline
	if len(s2.DeficientGroups()) != 0 {
		t.Fatal("deficiency should be repaired")
	}
	added := s2.PostSelect()
	if len(added) != 0 {
		t.Fatalf("PostSelect should add nothing when feasible: %v", added)
	}
}

func TestStreamerPostSelectFromBucket(t *testing.T) {
	// Construct genuine deficiency: group b upper=1 lower=1; stream two b
	// nodes while budget still open — first accepted, second bucketed. Then
	// swap the accepted one out... instead simplest: b node arrives when the
	// selection cannot take it (upper bound of... ). Use a swap that evicts
	// the only b node? SwapFeasible forbids dropping b below reserve when
	// in-group differs... in-group swap within b is allowed. A b node with
	// huge gain swaps out the weak b node - still 1 b node. Deficiency can
	// only arise when b nodes were all rejected while extendable=false due to
	// budget-n pressure: groups a[0,1] b[1,2], n=1. Stream a first: reserve
	// max(1,0)+max(0,1)=2>1 -> a rejected. So a cannot block b here...
	//
	// Deficiency genuinely requires rejecting a b node, which only happens
	// when the swap rule declines (gain too small) after budget is full of
	// reserved slots — but reserve always protects lower bounds, so a
	// rejected b node means b was already at its lower bound *or* budget
	// math allowed it. The remaining real case: b nodes that arrive, get
	// accepted, then... are never evicted. Hence in this design deficiency
	// after a full stream implies the group had fewer arrivals than l_i.
	// PostSelect then has nothing to add — verify it degrades gracefully.
	g := ratingsGraph(t, []float64{5, 4, 3})
	groups, _ := NewGroups(
		Group{Name: "a", Members: []graph.NodeID{0, 1}, Lower: 0, Upper: 2},
		Group{Name: "b", Members: []graph.NodeID{2}, Lower: 1, Upper: 1},
	)
	s := NewStreamer(groups, NewRatingSum(g, "rating"), 2)
	s.Process(0)
	s.Process(1)
	if got := s.PostSelect(); len(got) != 0 {
		t.Fatalf("PostSelect with empty bucket added %v", got)
	}
	if len(s.DeficientGroups()) != 1 {
		t.Fatal("b never arrived: should be deficient")
	}
	// Late arrival repairs it through the normal path.
	if r := s.Process(2); r.Decision != Accepted {
		t.Fatalf("late b arrival should be accepted, got %v", r.Decision)
	}
}

// Streaming achieves at least 1/4 of the offline greedy value on random
// instances (the Theorem 6 selection bound is vs optimum; offline greedy is
// a harsher yardstick at 1/2 OPT, so we check 1/4 * greedy/2 conservatively
// via greedy/4).
func TestStreamerQuarterOfGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		g := randomSocialGraph(rng, 40, 120)
		var m1, m2 []graph.NodeID
		for i := 0; i < 40; i++ {
			if i%2 == 0 {
				m1 = append(m1, graph.NodeID(i))
			} else {
				m2 = append(m2, graph.NodeID(i))
			}
		}
		groups, err := NewGroups(
			Group{Name: "a", Members: m1, Lower: 1, Upper: 4},
			Group{Name: "b", Members: m2, Lower: 1, Upper: 4},
		)
		if err != nil {
			t.Fatal(err)
		}
		n := 6
		greedySel, err := FairSelect(groups, NewNeighborCoverage(g, NeighborsIn, ""), n)
		if err != nil {
			t.Fatal(err)
		}
		u := NewNeighborCoverage(g, NeighborsIn, "")
		greedyVal := Eval(u, greedySel)

		s := NewStreamer(groups, NewNeighborCoverage(g, NeighborsIn, ""), n)
		order := rng.Perm(40)
		for _, i := range order {
			s.Process(graph.NodeID(i))
		}
		s.PostSelect()
		streamVal := s.Value()
		if streamVal < greedyVal/4-1e-9 {
			t.Fatalf("trial %d: stream value %v < 1/4 of greedy %v", trial, streamVal, greedyVal)
		}
		// Feasibility of the final selection.
		counts := groups.Counts(s.Selected())
		for i := 0; i < groups.Len(); i++ {
			if counts[i] > groups.At(i).Upper {
				t.Fatalf("trial %d: upper bound violated: %v", trial, counts)
			}
		}
	}
}

// TestStreamerBucketsEachNodeOnce: re-streaming a rejected node must not
// grow its bucket; a node PostSelect picks leaves the bucket and is
// bucketed afresh if it is rejected again after an eviction; and resuming
// a checkpoint that lists a node several times keeps its first entry only.
func TestStreamerBucketsEachNodeOnce(t *testing.T) {
	g := ratingsGraph(t, []float64{5, 4, 100, 1})
	groups, _ := NewGroups(Group{Name: "a", Members: []graph.NodeID{0, 1}, Lower: 0, Upper: 1})
	s := NewStreamer(groups, NewRatingSum(g, "rating"), 1)
	s.Process(0)
	for i := 0; i < 2000; i++ {
		if r := s.Process(1); r.Decision != Rejected {
			t.Fatalf("round %d: node 1 should be rejected, got %v", i, r.Decision)
		}
	}
	if b := s.Bucket(0); len(b) != 1 || b[0] != 1 {
		t.Fatalf("bucket after 2000 rejections = %v, want [1]", b)
	}

	// Group b = {2, 3} needs one member; the checkpoint predates dedup.
	groups, _ = NewGroups(Group{Name: "b", Members: []graph.NodeID{2, 3}, Lower: 1, Upper: 1})
	st := &StreamerState{Buckets: [][]graph.NodeID{{3, 2, 3, 3}}}
	s, err := ResumeStreamer(groups, NewRatingSum(g, "rating"), 1, st)
	if err != nil {
		t.Fatal(err)
	}
	if b := s.Bucket(0); len(b) != 2 || b[0] != 3 || b[1] != 2 {
		t.Fatalf("resumed bucket = %v, want [3 2]", b)
	}
	// PostSelect picks 2 (the higher rating); 3 stays bucketed.
	if added := s.PostSelect(); len(added) != 1 || added[0] != 2 {
		t.Fatalf("PostSelect added %v, want [2]", added)
	}
	if b := s.Bucket(0); len(b) != 1 || b[0] != 3 {
		t.Fatalf("bucket after PostSelect = %v, want [3]", b)
	}
	cp, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Buckets[0]) != 1 {
		t.Fatalf("checkpoint buckets = %v", cp.Buckets)
	}

	// A picked node that is evicted and rejected again is bucketed afresh.
	s, err = ResumeStreamer(groups, NewRatingSum(g, "rating"), 1, &StreamerState{Buckets: [][]graph.NodeID{{3}}})
	if err != nil {
		t.Fatal(err)
	}
	if added := s.PostSelect(); len(added) != 1 || added[0] != 3 {
		t.Fatalf("PostSelect added %v, want [3]", added)
	}
	if r := s.Process(2); r.Decision != Swapped || r.Evicted != 3 {
		t.Fatalf("node 2 should swap out 3, got %+v", r)
	}
	if r := s.Process(3); r.Decision != Rejected {
		t.Fatalf("node 3 should be rejected, got %v", r.Decision)
	}
	if b := s.Bucket(0); len(b) != 1 || b[0] != 3 {
		t.Fatalf("bucket after re-rejection = %v, want [3]", b)
	}
}
