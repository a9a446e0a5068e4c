package core

import (
	"testing"

	"github.com/cwru-db/fgs/internal/gen"
	"github.com/cwru-db/fgs/internal/submod"
)

// BenchmarkMaintainerApply measures one Inc-FGS update batch on
// LKISized(42, 30000) with the city groups fgsd's ingest setting uses: even
// iterations insert one of 64 fixed 64-edge corev sets, odd ones delete the
// set just inserted, so every batch applies and the graph stays near its
// initial size.
func BenchmarkMaintainerApply(b *testing.B) {
	g := gen.LKISized(42, 30000)
	groups, err := gen.GroupsByAttr(g, "user", "city", []string{"c0", "c1"}, 1, 4)
	if err != nil {
		b.Fatal(err)
	}
	sets := corevSets(g, 1, 64, 64)
	m, _ := NewMaintainer(g, groups, submod.NewNeighborCoverage(g, submod.NeighborsIn, ""), Config{R: 2, N: 20})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := sets[(i/2)%len(sets)]
		d := Delta{Insert: set}
		if i%2 == 1 {
			d = Delta{Delete: set}
		}
		if _, applied, err := m.Apply(d); err != nil || applied != len(set) {
			b.Fatalf("batch %d applied %d of %d: %v", i, applied, len(set), err)
		}
	}
}
