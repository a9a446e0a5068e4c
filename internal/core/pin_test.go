package core

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"github.com/cwru-db/fgs/internal/gen"
	"github.com/cwru-db/fgs/internal/graph"
	"github.com/cwru-db/fgs/internal/submod"
)

// maintainedStreamSHA256 is the SHA-256 of the JSON summaries the maintainer
// emits over pinnedUpdateStream. It was computed with the matcher that
// re-added every position's edges for every embedding, so it pins the exact
// uncapped P_E (through C_P and the corrections) across every optimisation
// of CoveredEdgeBitsAt since.
const maintainedStreamSHA256 = "8675b0f93f706bd987e672d68fc15bf90fb48549031341ad1505de54dd00e4e4"

// corevSets draws count sets of size user-user corev edges that g does
// not have and no other set repeats, so inserting them always applies.
func corevSets(g *graph.Graph, seed int64, count, size int) [][]EdgeUpdate {
	rng := rand.New(rand.NewSource(seed))
	users := g.NodesWithLabel("user")
	lid, _ := g.EdgeLabelID("corev")
	type pair struct{ a, b graph.NodeID }
	used := map[pair]bool{}
	out := make([][]EdgeUpdate, count)
	for i := range out {
		for len(out[i]) < size {
			a, b := users[rng.Intn(len(users))], users[rng.Intn(len(users))]
			if a == b || used[pair{a, b}] || g.HasEdge(a, b, lid) {
				continue
			}
			used[pair{a, b}] = true
			out[i] = append(out[i], EdgeUpdate{From: a, To: b, Label: "corev"})
		}
	}
	return out
}

// pinnedUpdateStream returns the batches of the pinned sequence: batch i
// inserts 64 fresh user-user corev edges and deletes the first 32 edges
// batch i-1 inserted, so inserts, deletes and mixed batches all occur.
func pinnedUpdateStream(g *graph.Graph, batches int) []Delta {
	sets := corevSets(g, 13, batches, 64)
	out := make([]Delta, batches)
	for i, ins := range sets {
		out[i] = Delta{Insert: ins}
		if i > 0 {
			out[i].Delete = sets[i-1][:32]
		}
	}
	return out
}

// TestMaintainedSummaryStreamPinned replays a seeded 300-batch
// insert/delete sequence on LKISized(42, 30000) with fgsd's city groups and
// compares the hash of every maintained summary's JSON with the pinned one.
func TestMaintainedSummaryStreamPinned(t *testing.T) {
	g := gen.LKISized(42, 30000)
	groups, err := gen.GroupsByAttr(g, "user", "city", []string{"c0", "c1"}, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	stream := pinnedUpdateStream(g, 300)
	util := submod.NewNeighborCoverage(g, submod.NeighborsIn, "")
	m, sum := NewMaintainer(g, groups, util, Config{R: 2, N: 20})
	h := sha256.New()
	if err := sum.WriteJSON(h, g); err != nil {
		t.Fatal(err)
	}
	for i, d := range stream {
		sum, applied, err := m.Apply(d)
		if err != nil || applied != len(d.Insert)+len(d.Delete) {
			t.Fatalf("batch %d: applied %d of %d: %v", i, applied, len(d.Insert)+len(d.Delete), err)
		}
		if err := sum.WriteJSON(h, g); err != nil {
			t.Fatal(err)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != maintainedStreamSHA256 {
		t.Fatalf("maintained summary stream hash = %s, want %s", got, maintainedStreamSHA256)
	}
}
