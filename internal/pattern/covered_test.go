package pattern

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/cwru-db/fgs/internal/graph"
)

// bruteCoveredEdges is the exhaustive oracle for the uncapped P_E at one
// anchor: enumerate every injective assignment with the focus pinned, keep
// those satisfying all constraints, and union the graph edges their pattern
// edges map to. Returns the sorted edge IDs and whether any embedding
// exists.
func bruteCoveredEdges(g *graph.Graph, p *Pattern, anchor graph.NodeID) ([]graph.EdgeID, bool) {
	n := len(p.Nodes)
	assign := make([]graph.NodeID, n)
	used := make(map[graph.NodeID]bool)
	union := map[graph.EdgeID]bool{}
	found := false

	nodeOK := func(u int, v graph.NodeID) bool {
		if g.LabelOf(v) != p.Nodes[u].Label {
			return false
		}
		for _, lit := range p.Nodes[u].Literals {
			got, ok := g.AttrString(v, lit.Key)
			if !ok || got != lit.Val {
				return false
			}
		}
		return true
	}
	emit := func() {
		ids := make([]graph.EdgeID, 0, len(p.Edges))
		for _, e := range p.Edges {
			lid, ok := g.EdgeLabelID(e.Label)
			if !ok {
				return
			}
			id, ok := g.EdgeIDBetween(assign[e.From], assign[e.To], lid)
			if !ok {
				return
			}
			ids = append(ids, id)
		}
		found = true
		for _, id := range ids {
			union[id] = true
		}
	}

	var rec func(u int)
	rec = func(u int) {
		if u == n {
			emit()
			return
		}
		if u == p.Focus {
			rec(u + 1)
			return
		}
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			if used[v] || !nodeOK(u, v) {
				continue
			}
			assign[u] = v
			used[v] = true
			rec(u + 1)
			delete(used, v)
		}
	}
	if !nodeOK(p.Focus, anchor) {
		return nil, false
	}
	assign[p.Focus] = anchor
	used[anchor] = true
	rec(0)
	out := make([]graph.EdgeID, 0, len(union))
	for id := range union {
		out = append(out, id)
	}
	slices.Sort(out)
	return out, found
}

// reAddAllCoveredEdges is the covered-edge collection as it was before the
// emit low-water mark and the final-leaf memo: the plain search, re-adding
// every position's edges for every embedding, stopping after EmbedCap
// embeddings. It is the oracle for the capped union, whose enumeration order
// and count must not change.
func reAddAllCoveredEdges(m *Matcher, p *Pattern, v graph.NodeID) ([]graph.EdgeID, bool) {
	c := m.compiledFor(p)
	if !c.ok || !c.nodeOK(m.g, c.focus, v) {
		return nil, false
	}
	edges := graph.NewEdgeBits(0)
	count := 0
	m.search(c, v, func(s *searchScratch) bool {
		for pos := 1; pos < len(s.treeID); pos++ {
			edges.Add(s.treeID[pos])
			for _, id := range s.extraID[pos] {
				edges.Add(id)
			}
		}
		count++
		return m.EmbedCap == 0 || count < m.EmbedCap
	}, nil)
	if count == 0 {
		return nil, false
	}
	return bitIDs(edges), true
}

func bitIDs(b *graph.EdgeBits) []graph.EdgeID {
	var out []graph.EdgeID
	if b != nil {
		b.Iterate(func(id graph.EdgeID) { out = append(out, id) })
	}
	return out
}

// leafyPattern builds the shapes the final-leaf memo must get right: several
// same-label leaves under one parent (injectivity-tight when the parent's
// image has about as many neighbours), optionally a literal on the leaves,
// optionally a closing edge that gives the last position back edges.
func leafyPattern(rng *rand.Rand, labels, elabels []string) *Pattern {
	p := NewNodePattern(labels[rng.Intn(len(labels))])
	parent := 0
	if rng.Intn(2) == 0 {
		p = p.AddLeaf(0, Node{Label: labels[rng.Intn(len(labels))]}, elabels[rng.Intn(len(elabels))], rng.Intn(2) == 0)
		parent = 1
	}
	leafLabel := labels[rng.Intn(len(labels))]
	elabel := elabels[rng.Intn(len(elabels))]
	out := rng.Intn(2) == 0
	var lits []Literal
	if rng.Intn(3) == 0 {
		lits = []Literal{{Key: "a", Val: []string{"1", "2"}[rng.Intn(2)]}}
	}
	for k := 1 + rng.Intn(3); k > 0; k-- {
		p = p.AddLeaf(parent, Node{Label: leafLabel, Literals: lits}, elabel, out)
	}
	if len(p.Nodes) >= 3 && rng.Intn(3) == 0 {
		if q := p.AddClosingEdge(len(p.Nodes)-1, rng.Intn(len(p.Nodes)-1), elabels[rng.Intn(len(elabels))]); q != nil {
			p = q
		}
	}
	return p
}

// TestCoveredEdgesUncappedAgainstBruteForce checks the uncapped union —
// low-water-mark emits plus the final-leaf memo — against the exhaustive
// oracle on random small graphs, covering injectivity-tight leaves, last
// positions with back edges, 2-node patterns and literal-filtered leaves.
func TestCoveredEdgesUncappedAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	labels := []string{"x", "y"}
	elabels := []string{"e", "f"}
	var memoPaths, backEdgeLast, twoNode, literalLeaf int
	for trial := 0; trial < 600; trial++ {
		g := randomDenseGraph(rng, 6+rng.Intn(4), labels, elabels)
		m := NewMatcher(g, 0)
		var p *Pattern
		if trial%2 == 0 {
			p = leafyPattern(rng, labels, elabels)
		} else {
			p = randomPattern(rng, labels, elabels, 5)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid pattern: %v", trial, err)
		}
		c := m.compiledFor(p)
		if c.ok {
			n := len(p.Nodes)
			switch {
			case c.leafLast && n >= 3:
				memoPaths++
			case n >= 2 && !c.leafLast:
				backEdgeLast++
			}
			if n == 2 {
				twoNode++
			}
			if n >= 2 && len(p.Nodes[c.order[n-1]].Literals) > 0 {
				literalLeaf++
			}
		}
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			want, wantOK := bruteCoveredEdges(g, p, v)
			bits, ok := m.CoveredEdgeBitsAt(p, v)
			if ok != wantOK || !slices.Equal(bitIDs(bits), want) {
				t.Fatalf("trial %d: CoveredEdgeBitsAt(%s, %d) = %v,%v, oracle says %v,%v", trial, p, v, bitIDs(bits), ok, want, wantOK)
			}
		}
	}
	for name, hits := range map[string]int{"memoised final leaf": memoPaths, "last position with back edges": backEdgeLast, "2-node pattern": twoNode, "literal-filtered leaf": literalLeaf} {
		if hits < 10 {
			t.Errorf("only %d trials exercised the %s case", hits, name)
		}
	}
}

// TestCoveredEdgesTightHub pins the injectivity-tight case on a fixed
// graph: a star of k same-label leaves at a hub with exactly k, k+1 or k-1
// neighbours, where a witness test that ignored blocking would be wrong.
func TestCoveredEdgesTightHub(t *testing.T) {
	for deg := 1; deg <= 5; deg++ {
		g := graph.New()
		hub := g.AddNode("x", nil)
		for i := 0; i < deg; i++ {
			leaf := g.AddNode("x", nil)
			if err := g.AddEdge(leaf, hub, "e"); err != nil {
				t.Fatal(err)
			}
		}
		m := NewMatcher(g, 0)
		for k := 1; k <= 4; k++ {
			p := NewNodePattern("x")
			for i := 0; i < k; i++ {
				p = p.AddLeaf(0, Node{Label: "x"}, "e", false)
			}
			want, wantOK := bruteCoveredEdges(g, p, hub)
			bits, ok := m.CoveredEdgeBitsAt(p, hub)
			if ok != wantOK || !slices.Equal(bitIDs(bits), want) {
				t.Fatalf("deg %d, %d leaves: got %v,%v, oracle %v,%v", deg, k, bitIDs(bits), ok, want, wantOK)
			}
			if wantOK != (k <= deg) {
				t.Fatalf("deg %d, %d leaves: oracle says match=%v", deg, k, wantOK)
			}
		}
	}
}

// TestCoveredEdgesCappedMatchesReAddAll checks that the low-water-mark emit
// leaves capped unions exactly as the re-add-everything emit produced them:
// same embeddings in the same order, so the same first EmbedCap of them.
// The uncapped union is compared too, against the plain (memo-free) search.
func TestCoveredEdgesCappedMatchesReAddAll(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	labels := []string{"x", "y"}
	elabels := []string{"e", "f"}
	for trial := 0; trial < 300; trial++ {
		g := randomDenseGraph(rng, 10+rng.Intn(6), labels, elabels)
		var p *Pattern
		if trial%2 == 0 {
			p = leafyPattern(rng, labels, elabels)
		} else {
			p = randomPattern(rng, labels, elabels, 5)
		}
		for _, embedCap := range []int{0, 1, 7, 512} {
			m := NewMatcher(g, embedCap)
			for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
				want, wantOK := reAddAllCoveredEdges(m, p, v)
				bits, ok := m.CoveredEdgeBitsAt(p, v)
				if ok != wantOK || !slices.Equal(bitIDs(bits), want) {
					t.Fatalf("trial %d cap %d: CoveredEdgeBitsAt(%s, %d) = %v,%v, re-add-all says %v,%v", trial, embedCap, p, v, bitIDs(bits), ok, want, wantOK)
				}
			}
		}
	}
}

// TestCoveredEdgesCappedEnumeration pins that a capped union still counts
// exactly min(EmbedCap, #embeddings) embeddings per anchor.
func TestCoveredEdgesCappedEnumeration(t *testing.T) {
	g := graph.New()
	hub := g.AddNode("x", nil)
	for i := 0; i < 6; i++ {
		leaf := g.AddNode("x", nil)
		if err := g.AddEdge(leaf, hub, "e"); err != nil {
			t.Fatal(err)
		}
	}
	p := NewNodePattern("x").AddLeaf(0, Node{Label: "x"}, "e", false).AddLeaf(0, Node{Label: "x"}, "e", false)
	for _, tc := range []struct{ embedCap, want int }{{1, 1}, {7, 7}, {512, 30}} {
		m := NewMatcher(g, tc.embedCap)
		m.CoveredEdgeBitsAt(p, hub)
		if got := int(m.embeddings.Load()); got != tc.want {
			t.Fatalf("cap %d: enumerated %d embeddings, want %d", tc.embedCap, got, tc.want)
		}
	}
}

// TestCoveredEdgesMemoRevisit builds the cases where the final-leaf memo's
// revisit path decides the union: pattern F -a-> P <-e- L1, P <-f- L2 with
// L2 matched last, on a graph where P's image p has a self-loop and f-edges
// from the anchor and from L1's images. With injectivity, p's f-candidates
// p, F and l1 are all blocked while L1 = l1 — n-1 of them, so only the n-th
// recorded candidate witnesses the completion — and l1's f-edge is blocked
// on the visit with L1 = l1 and freed on the one with L1 = l3. Both visit
// orders are checked against the exhaustive oracle.
func TestCoveredEdgesMemoRevisit(t *testing.T) {
	p := NewNodePattern("x").
		AddLeaf(0, Node{Label: "x"}, "a", true).
		AddLeaf(1, Node{Label: "x"}, "e", false).
		AddLeaf(1, Node{Label: "x"}, "f", false)
	for _, l1First := range []bool{true, false} {
		g := graph.New()
		f, pp, l1, l2, l3 := g.AddNode("x", nil), g.AddNode("x", nil), g.AddNode("x", nil), g.AddNode("x", nil), g.AddNode("x", nil)
		edges := [][3]any{{f, pp, "a"}, {f, pp, "f"}, {pp, pp, "f"}, {l1, pp, "f"}, {l2, pp, "f"}}
		if l1First {
			edges = append(edges, [3]any{l1, pp, "e"}, [3]any{l3, pp, "e"})
		} else {
			edges = append(edges, [3]any{l3, pp, "e"}, [3]any{l1, pp, "e"})
		}
		for _, e := range edges {
			if err := g.AddEdge(e[0].(graph.NodeID), e[1].(graph.NodeID), e[2].(string)); err != nil {
				t.Fatal(err)
			}
		}
		m := NewMatcher(g, 0)
		c := m.compiledFor(p)
		if !c.leafLast || c.order[3] != 3 {
			t.Fatalf("expected L2 (node 3) matched last as a memoised leaf, order %v", c.order)
		}
		want, wantOK := bruteCoveredEdges(g, p, f)
		bits, ok := m.CoveredEdgeBitsAt(p, f)
		if ok != wantOK || !slices.Equal(bitIDs(bits), want) {
			t.Fatalf("l1 first=%v: got %v,%v, oracle %v,%v", l1First, bitIDs(bits), ok, want, wantOK)
		}
	}
}

// TestCoveredEdgesConcurrent: one Matcher serves concurrent goroutines, so
// the emit mark and the final-leaf memo must live in per-search scratch.
// Several goroutines collect every anchor's union at once, uncapped and
// capped, and must each see the sequential result.
func TestCoveredEdgesConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	labels := []string{"x", "y"}
	elabels := []string{"e", "f"}
	g := randomDenseGraph(rng, 40, labels, elabels)
	var pats []*Pattern
	for i := 0; i < 12; i++ {
		pats = append(pats, leafyPattern(rng, labels, elabels), randomPattern(rng, labels, elabels, 4))
	}
	for _, embedCap := range []int{0, 7} {
		m := NewMatcher(g, embedCap)
		want := make([][][]graph.EdgeID, len(pats))
		for i, p := range pats {
			for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
				bits, _ := m.CoveredEdgeBitsAt(p, v)
				want[i] = append(want[i], bitIDs(bits))
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := range pats {
					i := (k + w) % len(pats)
					for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
						bits, _ := m.CoveredEdgeBitsAt(pats[i], v)
						if got := bitIDs(bits); !slices.Equal(got, want[i][v]) {
							t.Errorf("cap %d, worker %d: pattern %d at %d = %v, want %v", embedCap, w, i, v, got, want[i][v])
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
	}
}
