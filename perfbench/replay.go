package main

import (
	"bytes"
	"fmt"
	"time"

	fgs "github.com/cwru-db/fgs"
	"github.com/cwru-db/fgs/internal/core"
	"github.com/cwru-db/fgs/internal/graph"
	"github.com/cwru-db/fgs/internal/mining"
	"github.com/cwru-db/fgs/internal/obs"
	"github.com/cwru-db/fgs/internal/pattern"
	"github.com/cwru-db/fgs/internal/submod"
)

// The traced run's replay: the run's own inputs (each summarize's V_p,
// each update batch, each view pattern) go through the library's public
// calls one layer at a time, each call timed inside a span and its work
// counted from the counters the layer exports. The replay works on private
// copies of the boot graph, so summarize replays see the graph as it was at
// boot; the writes of a mixed run change a few dozen of its edges.

// replay holds the private state one traced run replays against.
type replay struct {
	r        *run
	g        *graph.Graph
	gs       groupSpec
	groups   *submod.Groups
	deadline time.Time
}

// mineEmbedCap is SumGen's default embedding cap, which the server's
// mining runs use; the matcher replay uses the same cap.
const mineEmbedCap = 512

func newReplay(r *run, fgsb []byte, gs groupSpec) (*replay, error) {
	g, dec, err := decodeGraph(fgsb)
	if err != nil {
		return nil, err
	}
	r.layers.add("graph.decode_s", dec.Seconds())
	groups, err := gs.build(g)
	if err != nil {
		return nil, err
	}
	return &replay{r: r, g: g, gs: gs, groups: groups, deadline: time.Now().Add(replayBudget)}, nil
}

// run replays distinct summarize requests, then the maintainer's work
// (construction, or resumption from resumeDir's snapshot when it is set;
// each update batch in order; each distinct view), until the replay budget
// is spent; at least one of each kind runs.
func (rp *replay) run(sums []sumParams, views []string, resumeDir string, deltas []fgs.Delta) error {
	for i := 0; i < 3; i++ {
		d := rp.r.tr.timed("graph.Clone", -1, func() { rp.g.Clone() })
		rp.r.layers.add("graph.clone_s", d.Seconds())
	}
	seen := map[sumParams]bool{}
	for _, p := range sums {
		if seen[p] {
			continue
		}
		if len(seen) > 0 && time.Now().After(rp.deadline) {
			break
		}
		seen[p] = true
		if err := rp.summarize(p); err != nil {
			return err
		}
	}
	return rp.maintain(views, resumeDir, deltas)
}

func (rp *replay) summarize(p sumParams) error {
	tr, L := rp.r.tr, rp.r.layers
	workers := rp.r.cpus
	root := tr.begin("summarize "+p.request().body, -1)
	defer tr.finish(root)

	util, err := buildUtility(rp.g, p.Utility)
	if err != nil {
		return err
	}
	var vp []graph.NodeID
	d := tr.timed("submod.FairSelect", root, func() { vp, err = submod.FairSelect(rp.groups, util, p.N) })
	if err != nil {
		return fmt.Errorf("replay %s: %w", p.request(), err)
	}
	L.add("submod.fair_select_ms", ms(d))

	var bits *graph.EdgeBits
	d = tr.timed("graph.RHopEdgeBitsOf", root, func() { bits = rp.g.RHopEdgeBitsOf(vp, p.R) })
	L.add("graph.rhop_ms", ms(d))
	L.add("graph.rhop_edges", float64(bits.Count()))

	er := mining.NewErCache(rp.g, p.R)
	d = tr.timed("mining.ErCache.Warm", root, func() { er.Warm(vp, workers) })
	L.add("mining.er_warm_ms", ms(d))
	var cands []*mining.Candidate
	mcfg := mining.Config{Radius: p.R, Workers: workers}
	d = tr.timed("mining.SumGen", root, func() { cands = mining.SumGen(rp.g, vp, vp, mcfg, er) })
	L.add("mining.sumgen_ms", ms(d))
	L.add("mining.candidates", float64(len(cands)))
	em := sumMetrics(er.ObsMetrics())
	if look := em["fgs_ercache_hits_total"] + em["fgs_ercache_misses_total"]; look > 0 {
		L.add("mining.ercache_hit_ratio", em["fgs_ercache_hits_total"]/look)
	}

	m := pattern.NewMatcher(rp.g, mineEmbedCap)
	d = tr.timed("pattern.Matcher", root, func() {
		for _, c := range cands {
			for _, v := range m.CoverAmong(c.P, vp) {
				m.CoveredEdgeBitsAt(c.P, v)
			}
		}
	})
	L.add("pattern.match_ms", ms(d))
	mm := sumMetrics(m.ObsMetrics())
	L.add("pattern.searches", mm["fgs_match_searches_total"])
	L.add("pattern.embeddings", mm["fgs_match_embeddings_total"])
	L.add("pattern.expansions", mm["fgs_match_expansions_total"])

	util2, err := buildUtility(rp.g, p.Utility)
	if err != nil {
		return err
	}
	cfg := core.Config{R: p.R, K: p.K, N: p.N, Workers: workers}
	var sum *core.Summary
	name, metric := "core.APXFGS", "core.apxfgs_ms"
	if p.K > 0 {
		name, metric = "core.KAPXFGS", "core.kapxfgs_ms"
	}
	id := tr.begin(name, root)
	t0 := time.Now()
	if p.K > 0 {
		sum, err = core.KAPXFGS(rp.g, rp.groups, util2, cfg)
	} else {
		sum, err = core.APXFGS(rp.g, rp.groups, util2, cfg)
	}
	d = time.Since(t0)
	tr.finish(id)
	if err != nil {
		return fmt.Errorf("replay %s: %w", p.request(), err)
	}
	L.add(metric, ms(d))
	L.add("core.cover_ms", ms(sum.Stats.SummarizeTime()))
	tr.phases(id, sum.Stats)

	var buf bytes.Buffer
	d = tr.timed("core.WriteJSON", root, func() { err = sum.WriteJSON(&buf, rp.g) })
	if err != nil {
		return err
	}
	L.add("core.write_json_ms", ms(d))
	return nil
}

// maintain replays the maintained summary's work: building (or resuming)
// the maintainer, each update batch through Maintainer.Apply with the same
// edge edits timed alone on a second private graph, and each distinct view
// pattern through QueryView.
func (rp *replay) maintain(views []string, resumeDir string, deltas []fgs.Delta) error {
	tr, L := rp.r.tr, rp.r.layers
	workers := rp.r.cpus
	cfg := core.Config{R: 2, N: 20, Workers: workers} // fgsd's -r and -n defaults
	mg := rp.g.Clone()
	util, err := buildUtility(mg, "coverage")
	if err != nil {
		return err
	}
	var (
		m   *core.Maintainer
		sum *core.Summary
	)
	d := tr.timed("core.NewMaintainer", -1, func() { m, sum = core.NewMaintainer(mg, rp.groups, util, cfg) })
	L.add("core.new_maintainer_s", d.Seconds())
	if resumeDir != "" {
		st, rec, err := fgs.OpenStore(fgs.StoreOptions{Dir: resumeDir, Fsync: fgs.FsyncOff})
		if err != nil {
			return err
		}
		if err := st.Close(); err != nil {
			return err
		}
		rgroups, err := rp.gs.build(rec.Graph)
		if err != nil {
			return err
		}
		rutil, err := buildUtility(rec.Graph, "coverage")
		if err != nil {
			return err
		}
		d = tr.timed("core.ResumeMaintainer", -1, func() { m, sum, err = core.ResumeMaintainer(rec.Graph, rgroups, rutil, cfg, rec.State) })
		if err != nil {
			return err
		}
		L.add("core.resume_s", d.Seconds())
		mg = rec.Graph
	}

	edits := rp.g.Clone()
	for i, delta := range deltas {
		if i > 0 && time.Now().After(rp.deadline) {
			break
		}
		root := tr.begin(fmt.Sprintf("update %d", i), -1)
		var applied int
		d = tr.timed("core.Maintainer.Apply", root, func() { sum, applied, err = m.Apply(delta) })
		if applied == 0 {
			tr.finish(root)
			return fmt.Errorf("replay update %d applied nothing: %v", i, err)
		}
		L.add("core.apply_ms", ms(d))
		var editErr error
		d = tr.timed("graph.AddEdge/RemoveEdge", root, func() {
			for _, e := range delta.Insert {
				if err := edits.AddEdge(e.From, e.To, e.Label); err != nil && editErr == nil {
					editErr = err
				}
			}
			for _, e := range delta.Delete {
				if err := edits.RemoveEdge(e.From, e.To, e.Label); err != nil && editErr == nil {
					editErr = err
				}
			}
		})
		tr.finish(root)
		if editErr != nil {
			return fmt.Errorf("replay update %d on a private graph: %w", i, editErr)
		}
		if n := len(delta.Insert) + len(delta.Delete); n > 0 {
			L.add("graph.mutate_us", float64(d)/float64(time.Microsecond)/float64(n))
		}
	}

	seen := map[string]bool{}
	for _, v := range views {
		if seen[v] {
			continue
		}
		seen[v] = true
		p, err := pattern.ParseString(v)
		if err != nil {
			return err
		}
		d = tr.timed("core.QueryView", -1, func() { core.QueryView(mg, sum, p, 0) })
		L.add("core.query_view_ms", ms(d))
	}
	return nil
}

// sumMetrics sums gathered metrics by name over their labels.
func sumMetrics(ms []obs.Metric) map[string]float64 {
	out := map[string]float64{}
	for _, m := range ms {
		out[m.Name] += m.Value
	}
	return out
}
