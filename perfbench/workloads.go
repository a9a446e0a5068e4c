package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	fgs "github.com/cwru-db/fgs"
	"github.com/cwru-db/fgs/datasets"
	"github.com/cwru-db/fgs/internal/graph"
	"github.com/cwru-db/fgs/internal/obs"
)

// Each workload fixes its graph (the generator seed is fgsd's demo seed)
// and the set of requests it sends; --seed orders them. Runs with different
// seeds thus offer the same work in a different order, which keeps the
// figures comparable across seeds.
const (
	demoSeed = 42
	// setupRuns is how many times a run boots the engine; setup_s is the
	// median. The last boot serves the load phase.
	setupRuns = 3
	// sizedNodes is the ingest graph: LKISized at ~30k nodes.
	sizedNodes = 30000
	// replayBudget bounds the traced run's library replay.
	replayBudget = 15 * time.Second
)

// hubsGroups and cityGroups are the two group settings: fgsd's default
// (the paper's gender groups) and the scale tier's small city cohorts.
var (
	hubsGroups = groupSpec{label: "user", attr: "gender", values: []string{"male", "female"}, lower: 1, upper: 10}
	cityGroups = groupSpec{label: "user", attr: "city", values: []string{"c0", "c1"}, lower: 1, upper: 4}
)

// viewPatterns are the view queries, over the LKI schema.
var viewPatterns = []string{
	"n 0 user\nf 0",
	"n 0 user\nn 1 user\ne 1 0 corev\nf 0",
	"n 0 user\nn 1 org\ne 0 1 employed\nf 0",
	"n 0 user gender=female\nf 0",
	"n 0 user degree=PhD\nn 1 org industry=Internet\ne 0 1 employed\nf 0",
	"n 0 user city=c0\nn 1 user\ne 0 1 corev\nf 0",
}

// sumParams is one summarize or summarize-k request (K > 0).
type sumParams struct {
	R       int    `json:"r,omitempty"`
	K       int    `json:"k,omitempty"`
	N       int    `json:"n,omitempty"`
	Utility string `json:"utility,omitempty"`
}

// mustJSON encodes a request body built from ints and strings, which
// always encodes.
func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

func (p sumParams) request() request {
	path := "/v1/summarize"
	if p.K > 0 {
		path = "/v1/summarize-k"
	}
	return post("summarize", path, mustJSON(p))
}

func viewRequest(pattern string) request {
	return post("view", "/v1/view", mustJSON(fgs.ServerViewRequest{Pattern: pattern}))
}

// edgeBatch is one /v1/update body's edges.
type edgeBatch []fgs.ServerEdgeChange

func updateRequest(b edgeBatch, insert bool) request {
	req := fgs.ServerUpdateRequest{}
	if insert {
		req.Insert = b
	} else {
		req.Delete = b
	}
	return post("update", "/v1/update", mustJSON(req))
}

// freshBatches draws count batches of size user-to-user corev edges that
// the graph does not have and no other batch repeats, so inserting them
// always applies.
func freshBatches(rng *rand.Rand, g *fgs.Graph, count, size int) ([]edgeBatch, error) {
	users := g.NodesWithLabel("user")
	lid, ok := g.EdgeLabelID("corev")
	if !ok || len(users) < 2 {
		return nil, fmt.Errorf("graph has no corev edges or too few users")
	}
	type pair struct{ a, b graph.NodeID }
	used := map[pair]bool{}
	out := make([]edgeBatch, count)
	for i := range out {
		for len(out[i]) < size {
			a, b := users[rng.Intn(len(users))], users[rng.Intn(len(users))]
			if a == b || used[pair{a, b}] || g.HasEdge(a, b, lid) {
				continue
			}
			used[pair{a, b}] = true
			out[i] = append(out[i], fgs.ServerEdgeChange{From: int64(a), To: int64(b), Label: "corev"})
		}
	}
	return out, nil
}

// serverConfig is fgsd's default configuration: one worker slot per CPU,
// default queue, deadline, views, and request tracing on.
func (r *run) serverConfig(cacheEntries int) fgs.ServerConfig {
	return fgs.ServerConfig{
		Workers:      r.cpus,
		CacheEntries: cacheEntries,
		SlowRequest:  10 * time.Second,
	}
}

// setup boots the engine setupRuns times and keeps the last boot. In a
// traced run the middle boot records spans, for the overhead estimate.
func (r *run) setup(boot func(traced bool) (*engine, bootTimes, error)) (*engine, []float64, error) {
	r.setPhase("setup")
	var e *engine
	var secs []float64
	for i := 0; i < setupRuns; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, nil, err
			}
			e = nil
			settle()
		}
		traced := r.tr != nil && i == 1
		var bt bootTimes
		var err error
		e, bt, err = boot(traced)
		if err != nil {
			return nil, nil, fmt.Errorf("boot: %w", err)
		}
		secs = append(secs, bt.total.Seconds())
		if bt.decode > 0 {
			r.layers.add("graph.decode_s", bt.decode.Seconds())
		}
		if bt.open > 0 {
			r.layers.add("store.open_s", bt.open.Seconds())
		}
	}
	if r.tr != nil {
		untraced := []float64{secs[0], secs[2]}
		r.layers.add("obs.tracing_overhead_pct.setup_s", 100*(secs[1]/median(untraced)-1))
	}
	return e, secs, nil
}

// reportE2E sets the end-to-end metrics from the gated request stream. It
// reads peak RSS, so call it when the load phase ends, before the gates.
func (r *run) reportE2E(setupSecs []float64, gated []response, window time.Duration) error {
	s := &series{}
	for _, x := range gated {
		s.add(x.latency, x.ok())
	}
	done := completedIn(gated, window)
	p50, ok50 := percentile(s.ms, 50)
	p75, ok75 := percentile(s.ms, 75)
	if !ok50 || !ok75 {
		return fmt.Errorf("only %d gated requests: p75 needs %d samples above it", s.attempted(), minBeyond)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	for _, m := range []struct {
		name, unit string
		v          float64
		n          int
	}{
		{"setup_s", "s", median(setupSecs), len(setupSecs)},
		{"peak_rss_mb", "MB", rss, 1},
		{"throughput_rps", "1/s", float64(done) / window.Seconds(), done},
		{"latency_p50_ms", "ms", p50, s.attempted()},
		{"latency_p75_ms", "ms", p75, s.attempted()},
	} {
		if err := r.e2e.set(m.name, m.unit, m.v, m.n); err != nil {
			return err
		}
	}
	if r.tr != nil {
		r.tracingOverhead(gated)
	}
	return nil
}

// tracingOverhead compares traced and untraced gated requests of the same
// run; a percentile either half cannot report is left out.
func (r *run) tracingOverhead(gated []response) {
	var on, off series
	for _, x := range gated {
		if x.traced {
			on.add(x.latency, x.ok())
		} else {
			off.add(x.latency, x.ok())
		}
	}
	for _, q := range []struct {
		name string
		p    float64
	}{{"latency_p50_ms", 50}, {"latency_p75_ms", 75}} {
		a, okA := percentile(on.ms, q.p)
		b, okB := percentile(off.ms, q.p)
		if okA && okB && b > 0 {
			r.layers.add("obs.tracing_overhead_pct."+q.name, 100*(a/b-1))
		}
	}
}

// loadLayers records the per-layer metrics every workload's load phase
// yields: pipeline stages per request, engine counters from /metrics, and
// the request classes' own latencies.
func (r *run) loadLayers(c *client, rs []response, window, limit time.Duration, gated []response) error {
	m, err := scrape(c)
	if err != nil {
		return err
	}
	hits, cacheable, sumHits, sums, writes := 0, 0, 0, 0, 0
	for _, x := range rs {
		if x.timing != "" {
			st := obs.ParseServerTiming(x.timing)
			for _, s := range []struct{ stage, name string }{
				{"admission", "server.admission_wait_ms"},
				{"pin", "server.pin_ms"},
				{"compute", "server.compute_ms"},
				{"encode", "server.encode_ms"},
			} {
				if d, ok := st[s.stage]; ok {
					r.layers.add(s.name, ms(d))
				}
			}
			r.layers.add("server.handler_overhead_ms", ms(x.latency-topStages(st)))
		}
		switch x.req.class {
		case "summarize":
			sums++
			cacheable++
			if x.hit {
				sumHits++
				hits++
			}
		case "view", "workload":
			cacheable++
			if x.hit {
				hits++
			}
		case "update":
			writes++
		}
	}
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	r.layers.add("server.cache_hit_ratio", ratio(hits, cacheable))
	r.layers.add("loadgen.summarize_hit_share", ratio(sumHits, sums))
	r.layers.add("loadgen.write_share", ratio(writes, len(rs)))
	r.layers.add("server.rejected", m["fgs_server_rejected_total"])
	if v, n := histMean(m, "fgs_server_mvcc_publish_us"); n > 0 {
		r.layers.add("server.mvcc_publish_us", v)
	}
	r.layers.add("server.mvcc_writer_waits", m["fgs_server_mvcc_writer_waits_total"])
	r.layers.add("server.mvcc_clones", m["fgs_server_mvcc_clones_total"])
	if f := m["fgs_store_wal_fsyncs_total"]; f > 0 {
		r.layers.add("store.appends_per_fsync", m["fgs_store_wal_appends_total"]/f)
	}
	if v, n := histMean(m, "fgs_store_wal_fsync_us"); n > 0 {
		r.layers.add("store.fsync_us", v)
	}
	if v, n := histMean(m, "fgs_store_snapshot_us"); n > 0 {
		r.layers.add("store.snapshot_ms", v/1000)
	}
	r.layers.add("store.snapshots", m["fgs_store_snapshots_total"])

	all := &series{}
	var late []float64
	for _, x := range rs {
		all.add(x.latency, x.ok())
		if x.late > 0 {
			late = append(late, ms(x.late))
		}
	}
	r.layers.add("loadgen.ops", float64(all.attempted()))
	r.layers.add("loadgen.error_rate", ratio(all.failed, all.attempted()))
	if len(late) > 0 {
		if v, ok := percentile(late, 90); ok {
			r.layers.add("loadgen.late_ms", v)
		}
	}
	g := &series{}
	for _, x := range gated {
		g.add(x.latency, x.ok())
	}
	r.layers.add("loadgen.limit_miss_ratio", ratio(g.missed(limit), g.attempted()))

	classes := byClass(rs)
	for _, cl := range []string{"summarize", "view", "update"} {
		s := classes[cl]
		if s == nil {
			continue
		}
		var of []response
		for _, x := range rs {
			if x.req.class == cl {
				of = append(of, x)
			}
		}
		if v, ok := percentile(s.ms, 50); ok {
			r.layers.add("req."+cl+"_p50_ms", v)
		}
		if v, ok := percentile(s.ms, 90); ok {
			r.layers.add("req."+cl+"_p90_ms", v)
		}
		if cl != "view" {
			r.layers.add("req."+cl+"_rps", float64(completedIn(of, window))/window.Seconds())
		}
	}
	return nil
}

// ---- hubs ----------------------------------------------------------------

// hubsSet is the distinct summarize requests hubs cycles through: seven at
// r=2 over the four utilities, half through summarize-k, and one at r=1,
// which costs about twice as much. Costs step evenly, so the percentiles
// move smoothly instead of jumping between requests. The set is fixed so
// that every seed offers the same work.
var hubsSet = []sumParams{
	{R: 2, N: 20, Utility: "coverage"},
	{R: 2, N: 10, Utility: "rating"},
	{R: 2, K: 3, N: 12, Utility: "cardinality"},
	{R: 2, K: 5, N: 16, Utility: "diversity:degree"},
	{R: 2, N: 6, Utility: "cardinality"},
	{R: 2, K: 2, N: 8, Utility: "coverage"},
	{R: 2, N: 14, Utility: "diversity:degree"},
	{R: 1, N: 8, Utility: "coverage"},
}

// hubsRequests is the seeded list: the fixed set in a seeded order.
func hubsRequests(seed int64) []sumParams {
	out := append([]sumParams(nil), hubsSet...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// runHubs is fgsd's default serving setup: the demo LKI graph at scale 1,
// gender groups, the coverage utility, result cache off, and nproc
// closed-loop clients working through the distinct summarize requests.
func runHubs(r *run) error {
	r.setPhase("input synthesis")
	fgsb, err := encodeGraph(datasets.LKI(demoSeed, 1))
	if err != nil {
		return err
	}
	reqs := hubsRequests(r.opts.seed)
	cfg := r.serverConfig(-1)
	e, setupSecs, err := r.setup(func(traced bool) (*engine, bootTimes, error) {
		return r.tracedBoot(traced, func() (*engine, bootTimes, error) { return bootMemory(fgsb, hubsGroups, cfg) })
	})
	if err != nil {
		return err
	}
	c := r.newClient(e.srv.Handler(), 30*time.Second)

	r.setPhase("load")
	// A p75 with minBeyond samples above it needs 4*minBeyond samples.
	rs, window := closedLoop(c, r.cpus, time.Duration(r.opts.seconds)*time.Second, 4*minBeyond, r.tr != nil,
		func(i int) request { return reqs[i%len(reqs)].request() })
	r.count(rs)
	if err := r.reportE2E(setupSecs, rs, window); err != nil {
		return err
	}
	if err := r.loadLayers(c, rs, window, 5*time.Second, rs); err != nil {
		return err
	}

	r.setPhase("correctness gate")
	if err := gateHubs(fgsb, reqs, rs, r.cpus); err != nil {
		return err
	}
	if r.tr == nil {
		return nil
	}
	r.setPhase("replay")
	rp, err := newReplay(r, fgsb, hubsGroups)
	if err != nil {
		return err
	}
	return rp.run(reqs, nil, "", nil)
}

// tracedBoot runs boot inside a span when traced.
func (r *run) tracedBoot(traced bool, boot func() (*engine, bootTimes, error)) (*engine, bootTimes, error) {
	if !traced {
		return boot()
	}
	var (
		e   *engine
		bt  bootTimes
		err error
	)
	r.tr.timed("setup", -1, func() { e, bt, err = boot() })
	return e, bt, err
}

// ---- ingest --------------------------------------------------------------

const (
	ingestBatch   = 64  // edges per update batch
	ingestSets    = 64  // distinct edge sets the writer cycles through
	ingestTail    = 32  // WAL batches past the snapshot each boot replays
	snapshotEvery = 256 // fgsd's -snapshot-every default
	// ingestTrace seeds the edge sets, which are part of the workload's
	// definition; --seed orders them and the views.
	ingestTrace = 1
	viewPace    = 20 * time.Millisecond
)

// ingestInputs is the writer's batch sequence and the reader's view order.
type ingestInputs struct {
	sets  []edgeBatch
	views []string
}

// newIngestInputs draws the fixed edge sets from ingestTrace, then orders
// them and the views by seed.
func newIngestInputs(seed int64, g *fgs.Graph) (*ingestInputs, error) {
	sets, err := freshBatches(rand.New(rand.NewSource(ingestTrace)), g, ingestSets, ingestBatch)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(sets), func(i, j int) { sets[i], sets[j] = sets[j], sets[i] })
	views := append([]string(nil), viewPatterns...)
	rng.Shuffle(len(views), func(i, j int) { views[i], views[j] = views[j], views[i] })
	return &ingestInputs{sets: sets, views: views}, nil
}

// batch is the writer's i-th update: even batches insert an edge set, odd
// ones delete the set the batch before inserted, so every batch applies.
func (in *ingestInputs) batch(i int) request {
	return updateRequest(in.sets[(i/2)%len(in.sets)], i%2 == 0)
}

// delta is batch i as the maintainer applies it.
func (in *ingestInputs) delta(i int) fgs.Delta {
	var d fgs.Delta
	for _, e := range in.sets[(i/2)%len(in.sets)] {
		u := fgs.EdgeUpdate{From: graph.NodeID(e.From), To: graph.NodeID(e.To), Label: e.Label}
		if i%2 == 0 {
			d.Insert = append(d.Insert, u)
		} else {
			d.Delete = append(d.Delete, u)
		}
	}
	return d
}

// quiesceSnapshots waits until no snapshot is in flight: the store admits
// one at a time, so a probe that gets to begin one (and aborts it) knows
// none is running.
func quiesceSnapshots(st *fgs.Store, within time.Duration) error {
	for deadline := time.Now().Add(within); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		sn, err := st.BeginSnapshot(st.SnapshotEpoch())
		if err == nil {
			sn.Abort()
			return nil
		}
	}
	return fmt.Errorf("a snapshot was still being written after %v", within)
}

// ingestCanonical is the summarize request whose body must survive a crash.
var ingestCanonical = sumParams{R: 1, N: 4}

// runIngest is the write path with a WAL on fgsd's defaults (group fsync,
// a snapshot every 256 batches): one closed-loop writer sends 64-edge
// batches, each inserting an edge set or deleting the set it inserted
// before, while one reader sends view queries at a fixed pace. Set-up is
// fgsd restarting on a data directory with a WAL tail of ingestTail
// batches; after the load the run crashes and recovers once more.
func runIngest(r *run) error {
	r.setPhase("input synthesis")
	g0 := datasets.LKISized(demoSeed, sizedNodes)
	fgsb, err := encodeGraph(g0)
	if err != nil {
		return err
	}
	in, err := newIngestInputs(r.opts.seed, g0)
	if err != nil {
		return err
	}
	g0 = nil

	tmp, err := os.MkdirTemp("", "perfbench-ingest-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	cfg := r.serverConfig(0)
	cfg.SnapshotEvery = snapshotEvery

	// The data directory every boot restarts from: epoch 0 sealed by a
	// snapshot, then a WAL tail of ingestTail batches. Input synthesis.
	r.setPhase("data directory synthesis")
	prep := filepath.Join(tmp, "prep")
	pe, _, err := bootStore(prep, fgsb, cityGroups, cfg)
	if err != nil {
		return err
	}
	pc := r.newClient(pe.srv.Handler(), 10*time.Second)
	for i := 0; i < ingestTail; i++ {
		if _, err := pc.mustOK(in.batch(i)); err != nil {
			return closeAfter(pe.st, err)
		}
	}
	want, err := captureState(pc)
	if err != nil {
		return closeAfter(pe.st, err)
	}
	if err := pe.close(); err != nil {
		return err
	}
	pe, pc = nil, nil
	settle()

	boots := 0
	e, setupSecs, err := r.setup(func(traced bool) (*engine, bootTimes, error) {
		boots++
		dir := filepath.Join(tmp, "boot"+strconv.Itoa(boots))
		if err := copyDir(prep, dir); err != nil {
			return nil, bootTimes{}, err
		}
		return r.tracedBoot(traced, func() (*engine, bootTimes, error) { return bootStore(dir, fgsb, cityGroups, cfg) })
	})
	if err != nil {
		return err
	}
	dir := filepath.Join(tmp, "boot"+strconv.Itoa(boots))
	c := r.newClient(e.srv.Handler(), 10*time.Second)
	if err := want.check(c, "restart from the prepared data directory"); err != nil {
		return closeAfter(e.st, err)
	}

	r.setPhase("load")
	stop := make(chan struct{})
	viewsDone := make(chan []response, 1)
	go func() {
		viewsDone <- pacedLoop(c, viewPace, stop, r.tr != nil, func(i int) request { return viewRequest(in.views[i%len(in.views)]) })
	}()
	ws, window := closedLoop(c, 1, time.Duration(r.opts.seconds)*time.Second, 4*minBeyond, r.tr != nil,
		func(i int) request { return in.batch(ingestTail + i) })
	close(stop)
	vs := <-viewsDone
	r.count(ws)
	r.count(vs)
	if err := r.reportE2E(setupSecs, ws, window); err != nil {
		return closeAfter(e.st, err)
	}
	all := append(append([]response(nil), ws...), vs...)
	if err := r.loadLayers(c, all, window, 100*time.Millisecond, ws); err != nil {
		return closeAfter(e.st, err)
	}

	// Crash without a final snapshot once no snapshot is being written (a
	// snapshot racing the crash would also race the recovery's reads).
	r.setPhase("crash and recovery")
	if err := quiesceSnapshots(e.st, 10*time.Second); err != nil {
		return closeAfter(e.st, err)
	}
	next := ingestTail + len(ws)
	before, err := captureState(c)
	if err != nil {
		return closeAfter(e.st, err)
	}
	if err := e.close(); err != nil {
		return err
	}
	e = nil
	settle()
	t0 := time.Now()
	re, bt, err := bootStore(dir, fgsb, cityGroups, cfg)
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	r.layers.add("req.recover_s", time.Since(t0).Seconds())
	r.layers.add("store.open_s", bt.open.Seconds())
	r.layers.add("store.replayed_records", float64(len(re.rec.Tail)))
	rc := r.newClient(re.srv.Handler(), 10*time.Second)
	if err := before.check(rc, "recovery after the crash"); err != nil {
		return closeAfter(re.st, err)
	}
	if err := re.close(); err != nil {
		return err
	}
	if r.tr == nil {
		return nil
	}

	r.setPhase("replay")
	rp, err := newReplay(r, fgsb, cityGroups)
	if err != nil {
		return err
	}
	deltas := make([]fgs.Delta, next)
	for i := range deltas {
		deltas[i] = in.delta(i)
	}
	return rp.run([]sumParams{ingestCanonical}, in.views, prep, deltas)
}
