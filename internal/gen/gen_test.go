package gen

import (
	"bytes"
	"testing"

	"github.com/cwru-db/fgs/internal/graph"
)

func TestDBPShape(t *testing.T) {
	g := DBP(1, 1)
	if g.NumNodes() < 1000 || g.NumEdges() < 1500 {
		t.Fatalf("DBP too small: %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	movies := g.NodesWithLabel("movie")
	if len(movies) != 600 {
		t.Fatalf("movies = %d", len(movies))
	}
	if len(g.NodesWithLabel("director")) == 0 || len(g.NodesWithLabel("actor")) == 0 {
		t.Fatal("missing labels")
	}
	// Every movie has a genre, year, country, rating.
	for _, m := range movies[:20] {
		for _, key := range []string{"genre", "year", "country", "rating"} {
			if _, ok := g.AttrString(m, key); !ok {
				t.Fatalf("movie %d missing %q", m, key)
			}
		}
	}
}

func TestLKIGenderSkew(t *testing.T) {
	g := LKI(2, 1)
	users := g.NodesWithLabel("user")
	if len(users) != 2000 {
		t.Fatalf("users = %d", len(users))
	}
	female := 0
	for _, u := range users {
		if v, _ := g.AttrString(u, "gender"); v == "female" {
			female++
		}
	}
	ratio := float64(female) / float64(len(users))
	if ratio < 0.18 || ratio > 0.28 {
		t.Fatalf("female ratio = %.2f, want ≈ 0.23", ratio)
	}
}

func TestLKIHeavyTail(t *testing.T) {
	g := LKI(3, 1)
	max, sum := 0, 0
	users := g.NodesWithLabel("user")
	for _, u := range users {
		d := g.Degree(u)
		sum += d
		if d > max {
			max = d
		}
	}
	mean := float64(sum) / float64(len(users))
	if float64(max) < 5*mean {
		t.Fatalf("no heavy tail: max degree %d vs mean %.1f", max, mean)
	}
}

func TestCiteShape(t *testing.T) {
	g := Cite(4, 1)
	papers := g.NodesWithLabel("paper")
	if len(papers) != 1500 {
		t.Fatalf("papers = %d", len(papers))
	}
	if _, ok := g.EdgeLabelID("cite"); !ok {
		t.Fatal("no cite edges")
	}
	if _, ok := g.EdgeLabelID("authored"); !ok {
		t.Fatal("no authored edges")
	}
}

func TestPandemicAgeSplit(t *testing.T) {
	g := Pandemic(5, 10000)
	citizens := g.NodesWithLabel("citizen")
	if len(citizens) != 10000 {
		t.Fatalf("citizens = %d", len(citizens))
	}
	young := 0
	for _, c := range citizens {
		if v, _ := g.AttrString(c, "agegroup"); v == "young" {
			young++
		}
	}
	ratio := float64(young) / float64(len(citizens))
	if ratio < 0.54 || ratio > 0.62 {
		t.Fatalf("young ratio = %.2f, want ≈ 0.58", ratio)
	}
	// Connectivity: the ring construction guarantees a connected backbone.
	reach := g.RHopNodesOf(citizens[:1], 10000)
	if len(reach) != len(citizens) {
		t.Fatalf("contact network disconnected: reached %d of %d", len(reach), len(citizens))
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := LKI(9, 1)
	b := LKI(9, 1)
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatal("LKI not deterministic")
	}
	for v := graph.NodeID(0); int(v) < 100; v++ {
		av, _ := a.AttrString(v, "gender")
		bv, _ := b.AttrString(v, "gender")
		if av != bv {
			t.Fatalf("node %d gender differs", v)
		}
	}
	c := DBP(9, 1)
	d := DBP(9, 1)
	if c.NumEdges() != d.NumEdges() {
		t.Fatal("DBP not deterministic")
	}
}

// TestGeneratorsByteDeterministic: repeated generation must encode to the
// same FGSB bytes. The interner tables are part of the encoding, so this
// fails whenever attribute keys or values are interned in map-iteration
// order.
func TestGeneratorsByteDeterministic(t *testing.T) {
	encode := func(g *graph.Graph) []byte {
		var buf bytes.Buffer
		if err := graph.WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for name, gen := range map[string]func() *graph.Graph{
		"LKI":      func() *graph.Graph { return LKI(42, 1) },
		"LKISized": func() *graph.Graph { return LKISized(42, 3000) },
		"DBP":      func() *graph.Graph { return DBP(42, 1) },
	} {
		want := encode(gen())
		for i := 0; i < 4; i++ {
			if got := encode(gen()); !bytes.Equal(got, want) {
				t.Fatalf("%s: generation %d encodes to different FGSB bytes", name, i+2)
			}
		}
	}
}

func TestScaleMultiplies(t *testing.T) {
	small := LKI(1, 1)
	big := LKI(1, 2)
	if big.NumNodes() < 2*small.NumNodes()-100 {
		t.Fatalf("scale 2 not bigger: %d vs %d", big.NumNodes(), small.NumNodes())
	}
	if tiny := DBP(1, 0); tiny.NumNodes() == 0 {
		t.Fatal("scale 0 should clamp to 1")
	}
}

func TestGroupsByAttr(t *testing.T) {
	g := LKI(6, 1)
	groups, err := GroupsByAttr(g, "user", "gender", []string{"male", "female"}, 40, 60)
	if err != nil {
		t.Fatalf("GroupsByAttr: %v", err)
	}
	if groups.Len() != 2 {
		t.Fatalf("groups = %d", groups.Len())
	}
	if groups.At(0).Name != "gender=male" || groups.At(1).Name != "gender=female" {
		t.Fatalf("names: %q %q", groups.At(0).Name, groups.At(1).Name)
	}
	if groups.At(0).Lower != 40 || groups.At(1).Upper != 60 {
		t.Fatal("bounds not applied")
	}
	// Errors: unknown key, oversized bound.
	if _, err := GroupsByAttr(g, "user", "nokey", []string{"x"}, 0, 1); err == nil {
		t.Fatal("unknown key accepted")
	}
	if _, err := GroupsByAttr(g, "user", "gender", []string{"male"}, 0, 1<<20); err == nil {
		t.Fatal("oversized upper bound accepted")
	}
}

func TestGroupsByAttrPairs(t *testing.T) {
	g := LKI(7, 1)
	groups, err := GroupsByAttrPairs(g, "user", "gender", []string{"male", "female"}, "degree", []string{"BS", "MS", "PhD"}, 5, 20)
	if err != nil {
		t.Fatalf("GroupsByAttrPairs: %v", err)
	}
	if groups.Len() != 6 {
		t.Fatalf("groups = %d, want 6 (2 genders x 3 degrees)", groups.Len())
	}
	// Disjointness is enforced by NewGroups; spot check one membership.
	grp := groups.At(0)
	for _, v := range grp.Members[:5] {
		gender, _ := g.AttrString(v, "gender")
		deg, _ := g.AttrString(v, "degree")
		if "gender="+gender+",degree="+deg != grp.Name {
			t.Fatalf("member %d does not match group %q", v, grp.Name)
		}
	}
}
