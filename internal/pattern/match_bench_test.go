package pattern

import (
	"math/rand"
	"testing"

	"github.com/cwru-db/fgs/internal/graph"
)

// Micro-benchmarks for the matcher — T_I in the paper's cost analysis.

func benchSocialGraph(b *testing.B, n int) *graph.Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	g := graph.New()
	for i := 0; i < n; i++ {
		attrs := map[string]string{"exp": []string{"3", "4", "5"}[rng.Intn(3)]}
		g.AddNode("user", attrs)
	}
	for i := 0; i < n*3; i++ {
		_ = g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), "recommend")
	}
	return g
}

func BenchmarkMatchAtStar(b *testing.B) {
	g := benchSocialGraph(b, 2000)
	m := NewMatcher(g, 0)
	p := star(Literal{Key: "exp", Val: "5"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MatchAt(p, graph.NodeID(i%2000))
	}
}

func BenchmarkMatchAtChain3(b *testing.B) {
	g := benchSocialGraph(b, 2000)
	m := NewMatcher(g, 0)
	p := &Pattern{
		Focus: 0,
		Nodes: []Node{{Label: "user"}, {Label: "user"}, {Label: "user"}, {Label: "user"}},
		Edges: []Edge{{1, 0, "recommend"}, {2, 1, "recommend"}, {3, 2, "recommend"}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MatchAt(p, graph.NodeID(i%2000))
	}
}

func BenchmarkCoveredEdgesAt(b *testing.B) {
	g := benchSocialGraph(b, 2000)
	m := NewMatcher(g, 64)
	p := star()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.CoveredEdgesAt(p, graph.NodeID(i%2000))
	}
}

func BenchmarkDualSim(b *testing.B) {
	g := benchSocialGraph(b, 2000)
	m := NewMatcher(g, 0)
	p := star(Literal{Key: "exp", Val: "4"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.DualSim(p)
	}
}

func BenchmarkCanonicalCode(b *testing.B) {
	p := &Pattern{
		Focus: 0,
		Nodes: []Node{{Label: "a"}, {Label: "b"}, {Label: "c"}, {Label: "b"}, {Label: "a"}},
		Edges: []Edge{{0, 1, "e"}, {1, 2, "e"}, {0, 3, "f"}, {3, 2, "e"}, {4, 0, "e"}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CanonicalCode(p)
	}
}

// BenchmarkCoveredEdgesAtUncapped collects the exact (EmbedCap 0) P_E of a
// two-leaf star anchored at a hub with 400 in-neighbours: about 160k
// embeddings, whose union is the hub's 400 in-edges.
func BenchmarkCoveredEdgesAtUncapped(b *testing.B) {
	g := benchSocialGraph(b, 2000)
	rng := rand.New(rand.NewSource(2))
	hub := graph.NodeID(0)
	for added := 0; added < 400; {
		if g.AddEdge(graph.NodeID(1+rng.Intn(1999)), hub, "recommend") == nil {
			added++
		}
	}
	m := NewMatcher(g, 0)
	p := star()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.CoveredEdgeBitsAt(p, hub)
	}
}
