package core

import (
	"reflect"
	"testing"

	"github.com/cwru-db/fgs/internal/gen"
	"github.com/cwru-db/fgs/internal/graph"
	"github.com/cwru-db/fgs/internal/submod"
)

// growthFixture is a small sized-LKI maintainer with fgsd's city groups and
// the edge sets its batches cycle through.
func growthFixture(t *testing.T, cfg Config) (*graph.Graph, *submod.Groups, *Maintainer, [][]EdgeUpdate) {
	t.Helper()
	g := gen.LKISized(7, 3000)
	groups, err := gen.GroupsByAttr(g, "user", "city", []string{"c0", "c1"}, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	sets := corevSets(g, 3, 8, 32)
	m, _ := NewMaintainer(g, groups, submod.NewNeighborCoverage(g, submod.NeighborsIn, ""), cfg)
	return g, groups, m, sets
}

// applyCycle applies batch i of the cycle: even batches insert a set, odd
// ones delete the set the batch before inserted.
func applyCycle(t *testing.T, m *Maintainer, sets [][]EdgeUpdate, i int) *Summary {
	t.Helper()
	set := sets[(i/2)%len(sets)]
	d := Delta{Insert: set}
	if i%2 == 1 {
		d = Delta{Delete: set}
	}
	sum, applied, err := m.Apply(d)
	if err != nil || applied != len(set) {
		t.Fatalf("batch %d applied %d of %d: %v", i, applied, len(set), err)
	}
	return sum
}

// TestMaintainerBucketsStayBounded: Inc-FGS re-streams the affected group
// nodes every batch, so 2000 batches over the same edge sets re-reject the
// same nodes again and again. Each must be bucketed once: every bucket stays
// within its group, holds no node twice, and the checkpoint still resumes
// to an identical maintainer.
func TestMaintainerBucketsStayBounded(t *testing.T) {
	g, groups, m, sets := growthFixture(t, Config{R: 2, N: 20})
	for i := 0; i < 2000; i++ {
		applyCycle(t, m, sets, i)
	}
	st, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for gi, b := range st.Selector.Buckets {
		if size := len(groups.At(gi).Members); len(b) > size {
			t.Fatalf("group %d: bucket holds %d entries, group has %d members", gi, len(b), size)
		}
		seen := graph.NewNodeSet(len(b))
		for _, v := range b {
			if seen.Has(v) {
				t.Fatalf("group %d: node %d bucketed twice", gi, v)
			}
			seen.Add(v)
		}
		total += len(b)
	}
	if total == 0 {
		t.Fatal("no node was ever rejected: the fixture does not exercise the buckets")
	}
	m2, _, err := ResumeMaintainer(g, groups, submod.NewNeighborCoverage(g, submod.NeighborsIn, ""), Config{R: 2, N: 20}, st)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := m2.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st2, st) {
		t.Fatalf("checkpoint does not round-trip through resume:\n got %+v\nwant %+v", st2.Selector, st.Selector)
	}
}
