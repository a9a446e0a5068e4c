package pattern

import (
	"sort"
	"sync"

	"github.com/cwru-db/fgs/internal/graph"
	"github.com/cwru-db/fgs/internal/obs"
)

// Matcher evaluates patterns against one graph using anchored subgraph
// isomorphism: a matching h is injective, preserves node labels and literals,
// and maps every pattern edge to a graph edge with the same label
// (Section II). "P covers v" means an embedding with h(u_o) = v exists.
//
// EmbedCap bounds how many embeddings per (pattern, anchor) are enumerated
// when collecting covered edges; 0 means unlimited. The cap trades exactness
// of P_E (and hence of correction sets) for time on pathological anchors.
type Matcher struct {
	g        *graph.Graph
	EmbedCap int
	workers  int // see SetWorkers

	// Compile cache, keyed by pattern identity. Patterns are immutable
	// (AddLeaf/AddLiteral/AddClosingEdge return copies), so the pointer is a
	// sound canonical key. Guarded by cacheMu because the mining fan-out and
	// coverAmongParallel call the matcher from worker goroutines. Entries
	// with ok=false are stamped with the graph's interner universe sizes and
	// recompiled once the universes grow (see compiledFor).
	cacheMu sync.RWMutex
	cache   map[*Pattern]*compiled

	// searchPool recycles per-search assignment/visited scratch across calls
	// (one scratch per concurrent search; see searchScratch).
	searchPool sync.Pool

	// Backtracking-search counters, accumulated in locals during each search
	// call and flushed with a handful of atomic adds at the end — safe under
	// the parallel CoverAmong fan-out, invisible in profiles.
	searches   obs.Counter
	embeddings obs.Counter
	expansions obs.Counter
	prunes     obs.Counter
}

// ObsMetrics snapshots the matcher's search counters, implementing
// obs.Source.
func (m *Matcher) ObsMetrics() []obs.Metric {
	return []obs.Metric{
		{Name: "fgs_match_searches_total", Help: "Anchored backtracking searches started.", Kind: obs.KindCounter, Value: float64(m.searches.Load())},
		{Name: "fgs_match_embeddings_total", Help: "Embeddings enumerated across all searches.", Kind: obs.KindCounter, Value: float64(m.embeddings.Load())},
		{Name: "fgs_match_expansions_total", Help: "Partial-assignment extensions (backtrack nodes visited).", Kind: obs.KindCounter, Value: float64(m.expansions.Load())},
		{Name: "fgs_match_prunes_total", Help: "Candidate nodes rejected during backtracking.", Kind: obs.KindCounter, Value: float64(m.prunes.Load())},
	}
}

// NewMatcher returns a matcher over g with the given embedding cap.
func NewMatcher(g *graph.Graph, embedCap int) *Matcher {
	return &Matcher{g: g, EmbedCap: embedCap}
}

// Graph returns the graph the matcher evaluates against.
func (m *Matcher) Graph() *graph.Graph { return m.g }

// compiled is a pattern with all strings resolved against one graph's
// interners plus a precomputed matching order.
type compiled struct {
	ok     bool // false when some label/key/value does not occur in the graph
	focus  int
	labels []graph.LabelID
	lits   [][]graph.Attr // per node, resolved literals
	// adj lists every edge from each node's perspective.
	adj [][]cEdge
	// order is a BFS matching order starting at the focus; anchorOf[i] gives,
	// for order[i] (i>0), the incident edge to an earlier-mapped node used to
	// generate candidates.
	order    []int
	anchorOf []cEdge // indexed by position in order; anchorOf[0] unused
	pos      []int   // node -> position in order
	// back[i] lists, for order[i], the pattern edges to earlier-mapped nodes
	// other than the anchor edge — the non-tree edges the search must verify
	// when placing position i. Precomputed here so the inner loop skips tree
	// positions (the common case) without scanning adj and re-filtering.
	// backOff[i] is the start of position i's entries in a flat array of
	// nback total back edges; the search scratch uses it to give each
	// (position, back edge) pair a stable slot across recursion levels.
	back    [][]cEdge
	backOff []int
	nback   int
	// leafLast is set when the last matching position is a leaf whose only
	// pattern edge is its anchor edge (no back edges): its images depend on
	// the prefix only through the parent's image and injectivity, which the
	// uncapped covered-edge union exploits (see settleLeaf).
	leafLast bool

	// nodeBits[u] is the graph's per-label node bitset for labels[u], taken
	// at compile time; nbound is the node count then. nodeOK consults the
	// bitset for nodes below nbound (one shared word per 64 nodes instead of
	// a labelOf load per candidate) and falls back to a direct label compare
	// for nodes interned after compilation.
	nodeBits []*graph.NodeBits
	nbound   int

	// universes stamps ok=false results with Graph.UniverseSizes() at compile
	// time: "unmatchable" only holds while no new label/key/value has been
	// interned, so compiledFor recompiles when the universes grow.
	universes [4]int32
}

// cEdge is one pattern edge viewed from a node: the other endpoint, the edge
// label, and whether the edge leaves this node.
type cEdge struct {
	other int
	label graph.LabelID
	out   bool
}

// Compile resolves a pattern against the matcher's graph. Returns a compiled
// form; c.ok is false when the pattern trivially has no matches because some
// label, key, or value never occurs in the graph.
func (m *Matcher) compile(p *Pattern) compiled {
	n := len(p.Nodes)
	c := compiled{focus: p.Focus, labels: make([]graph.LabelID, n), lits: make([][]graph.Attr, n), adj: make([][]cEdge, n), ok: true}
	for i, node := range p.Nodes {
		lid, ok := m.g.NodeLabelID(node.Label)
		if !ok {
			c.ok = false
			return c
		}
		c.labels[i] = lid
		for _, lit := range node.Literals {
			kid, ok := m.g.AttrKeyID(lit.Key)
			if !ok {
				c.ok = false
				return c
			}
			vid, ok := m.g.AttrValID(lit.Val)
			if !ok {
				c.ok = false
				return c
			}
			c.lits[i] = append(c.lits[i], graph.Attr{Key: kid, Val: vid})
		}
	}
	for _, e := range p.Edges {
		lid, ok := m.g.EdgeLabelID(e.Label)
		if !ok {
			c.ok = false
			return c
		}
		c.adj[e.From] = append(c.adj[e.From], cEdge{other: e.To, label: lid, out: true})
		c.adj[e.To] = append(c.adj[e.To], cEdge{other: e.From, label: lid, out: false})
	}

	// BFS order from the focus. Prefer expanding nodes with more literals and
	// higher pattern degree first: they prune candidates earlier.
	c.order = make([]int, 0, n)
	c.anchorOf = make([]cEdge, n)
	c.pos = make([]int, n)
	placed := make([]bool, n)
	c.order = append(c.order, p.Focus)
	placed[p.Focus] = true
	for len(c.order) < n {
		best := -1
		var bestEdge cEdge
		bestScore := -1
		for _, u := range c.order {
			for _, e := range c.adj[u] {
				if placed[e.other] {
					continue
				}
				score := len(c.lits[e.other])*10 + len(c.adj[e.other])
				if score > bestScore {
					bestScore = score
					best = e.other
					// The anchor edge is stored from the new node's
					// perspective so candidate generation starts at the
					// already-mapped endpoint.
					bestEdge = cEdge{other: u, label: e.label, out: !e.out}
				}
			}
		}
		if best < 0 {
			// Disconnected pattern: callers should have validated; treat as
			// unmatchable rather than panicking deep in a search.
			c.ok = false
			return c
		}
		c.anchorOf[len(c.order)] = bestEdge
		placed[best] = true
		c.order = append(c.order, best)
	}
	for i, u := range c.order {
		c.pos[u] = i
	}
	c.back = make([][]cEdge, n)
	c.backOff = make([]int, n)
	for i := 1; i < n; i++ {
		a := c.anchorOf[i]
		c.backOff[i] = c.nback
		for _, e := range c.adj[c.order[i]] {
			if c.pos[e.other] >= i || (e.other == a.other && e.label == a.label && e.out == a.out) {
				continue
			}
			c.back[i] = append(c.back[i], e)
			c.nback++
		}
	}
	c.leafLast = n >= 2 && len(c.back[n-1]) == 0

	c.nodeBits = make([]*graph.NodeBits, n)
	for u, lid := range c.labels {
		c.nodeBits[u] = m.g.LabelBits(lid)
	}
	c.nbound = m.g.NumNodes()
	return c
}

// compileCacheCap bounds the compile cache; mining sessions churn through
// thousands of transient candidate patterns, so on overflow the cache is
// simply reset (recompiling is cheap, unbounded growth is not).
const compileCacheCap = 4096

// compiledFor returns the cached compilation of p, compiling on first use.
// A cached ok=false entry is only trusted while the graph's interner
// universes match its stamp: a pattern deemed unmatchable because a label
// was unknown must be recompiled after AddNode/AddEdge interns it (the
// dynamic setting of Section VII). ok=true entries stay valid forever —
// interned IDs are stable — with nodeOK handling nodes added later via the
// nbound fallback.
func (m *Matcher) compiledFor(p *Pattern) *compiled {
	m.cacheMu.RLock()
	c, hit := m.cache[p]
	m.cacheMu.RUnlock()
	if hit && (c.ok || c.universes == m.g.UniverseSizes()) {
		return c
	}
	fresh := m.compile(p)
	if !fresh.ok {
		fresh.universes = m.g.UniverseSizes()
	}
	m.cacheMu.Lock()
	if m.cache == nil {
		m.cache = make(map[*Pattern]*compiled)
	} else if len(m.cache) >= compileCacheCap {
		clear(m.cache)
	}
	m.cache[p] = &fresh
	m.cacheMu.Unlock()
	return &fresh
}

// nodeOK reports whether graph node v can be the image of pattern node u.
func (c *compiled) nodeOK(g *graph.Graph, u int, v graph.NodeID) bool {
	if int(v) < c.nbound {
		if !c.nodeBits[u].Has(v) {
			return false
		}
	} else if g.LabelIDOf(v) != c.labels[u] {
		return false
	}
	for _, lit := range c.lits[u] {
		if !g.HasLiteral(v, lit.Key, lit.Val) {
			return false
		}
	}
	return true
}

// MatchAt reports whether p covers graph node v at the focus.
func (m *Matcher) MatchAt(p *Pattern, v graph.NodeID) bool {
	c := m.compiledFor(p)
	if !c.ok || !c.nodeOK(m.g, c.focus, v) {
		return false
	}
	found := false
	m.search(c, v, func(*searchScratch) bool {
		found = true
		return false // stop at first embedding
	}, nil)
	return found
}

// CoveredEdgeBitsAt returns the set of graph edges matched by any pattern
// edge in any embedding of p anchored at v (up to EmbedCap embeddings),
// together with whether at least one embedding exists. This is the hot-path
// form; CoveredEdgesAt adapts it to the map representation.
//
// The cost follows the output rather than the embedding count: an emit adds
// only the positions re-assigned since the previous one (searchScratch.low),
// and with EmbedCap 0 a back-edge-free final leaf is settled once per prefix
// through a per-parent memo instead of once per embedding (settleLeaf).
// Capped searches enumerate exactly the embeddings, in exactly the order,
// they always did, so the first EmbedCap embeddings — and the union — are
// unchanged.
func (m *Matcher) CoveredEdgeBitsAt(p *Pattern, v graph.NodeID) (*graph.EdgeBits, bool) {
	c := m.compiledFor(p)
	if !c.ok || !c.nodeOK(m.g, c.focus, v) {
		return nil, false
	}
	edges := graph.NewEdgeBits(0)
	count := 0
	emit := func(s *searchScratch) bool {
		s.emitEdges(edges, len(s.treeID))
		count++
		return m.EmbedCap == 0 || count < m.EmbedCap
	}
	var leaf func(*searchScratch, graph.NodeID) bool
	if m.EmbedCap == 0 && c.leafLast {
		leaf = func(s *searchScratch, parent graph.NodeID) bool {
			if !m.settleLeaf(c, s, parent, edges) {
				return false
			}
			s.emitEdges(edges, len(s.treeID)-1)
			count++
			return true
		}
	}
	m.search(c, v, emit, leaf)
	if count == 0 {
		return nil, false
	}
	return edges, true
}

// settleLeaf adds to edges the final leaf's matched edge in every completion
// of the current prefix (positions 0..n-2, stamped in s) and reports whether
// there is at least one. The leaf hangs off the graph node parent by its
// anchor edge alone, so its candidates F(parent) — the parent's adjacency
// entries passing the edge-label and node filters — are the same for every
// prefix; a prefix only blocks those whose endpoint it already uses, and it
// uses n-1 nodes. Edges are unique per (endpoints, label), so at most n-1
// candidates are blocked at a time.
//
// The first prefix seen with a given parent image scans F(parent) once,
// adds every unblocked candidate, and memoises the first n candidates plus
// the blocked ones. A later prefix with the same parent has a completion iff
// one of those first n is free (at most n-1 can be blocked), and the only
// candidate edges it can add that are not in edges yet are the memoised
// blocked ones it leaves free; those are added and dropped from the memo.
// The union over all prefixes is thus exactly the union over all
// embeddings.
func (m *Matcher) settleLeaf(c *compiled, s *searchScratch, parent graph.NodeID, edges *graph.EdgeBits) bool {
	stamp, epoch := s.stamp, s.epoch
	if s.memoStamp[parent] == epoch {
		e := &s.memos[s.memoIdx[parent]]
		free := false
		for _, v := range s.memoFirst[e.first : e.first+e.nfirst] {
			if stamp[v] != epoch {
				free = true
				break
			}
		}
		if !free {
			return false
		}
		blocked := s.memoBlocked[e.blocked : e.blocked+e.nblocked]
		for i := 0; i < len(blocked); {
			if stamp[blocked[i].To] == epoch {
				i++
				continue
			}
			edges.Add(blocked[i].ID)
			blocked[i] = blocked[len(blocked)-1]
			blocked = blocked[:len(blocked)-1]
		}
		e.nblocked = int32(len(blocked))
		return true
	}

	n := len(c.labels)
	u := c.order[n-1]
	a := c.anchorOf[n-1]
	var cands []graph.Edge
	if a.out {
		cands = m.g.In(parent)
	} else {
		cands = m.g.Out(parent)
	}
	e := leafMemo{first: int32(len(s.memoFirst)), blocked: int32(len(s.memoBlocked))}
	free := false
	for _, ge := range cands {
		if ge.Label != a.label || !c.nodeOK(m.g, u, ge.To) {
			continue
		}
		if int(e.nfirst) < n {
			s.memoFirst = append(s.memoFirst, ge.To)
			e.nfirst++
		}
		if stamp[ge.To] == epoch {
			s.memoBlocked = append(s.memoBlocked, ge)
			e.nblocked++
			continue
		}
		edges.Add(ge.ID)
		free = true
	}
	s.memoStamp[parent] = epoch
	s.memoIdx[parent] = int32(len(s.memos))
	s.memos = append(s.memos, e)
	return free
}

// CoveredEdgesAt is CoveredEdgeBitsAt in the map representation, kept for
// the cold paths (verification, baselines, public API).
func (m *Matcher) CoveredEdgesAt(p *Pattern, v graph.NodeID) (graph.EdgeSet, bool) {
	bits, ok := m.CoveredEdgeBitsAt(p, v)
	if !ok {
		return nil, false
	}
	return m.g.EdgeSetOf(bits), true
}

// CoverAmong returns the subset of candidates covered by p at the focus, in
// input order. With SetWorkers(>1), large candidate lists are evaluated in
// parallel; the result is identical either way.
func (m *Matcher) CoverAmong(p *Pattern, candidates []graph.NodeID) []graph.NodeID {
	c := m.compiledFor(p)
	if !c.ok {
		return nil
	}
	if m.workers > 1 && len(candidates) >= parallelThreshold {
		return m.coverAmongParallel(c, candidates)
	}
	var covered []graph.NodeID
	for _, v := range candidates {
		if !c.nodeOK(m.g, c.focus, v) {
			continue
		}
		found := false
		m.search(c, v, func(*searchScratch) bool { found = true; return false }, nil)
		if found {
			covered = append(covered, v)
		}
	}
	return covered
}

// FocusCandidates returns all graph nodes that satisfy the focus node's label
// and literals — the superset of nodes p can cover.
func (m *Matcher) FocusCandidates(p *Pattern) []graph.NodeID {
	c := m.compiledFor(p)
	if !c.ok {
		return nil
	}
	var out []graph.NodeID
	for _, v := range m.g.NodesWithLabelID(c.labels[c.focus]) {
		if c.nodeOK(m.g, c.focus, v) {
			out = append(out, v)
		}
	}
	return out
}

// Matches returns every node p covers in the whole graph, sorted. This is the
// P(u_o, G) evaluation used by the case studies (pattern queries); the FGS
// algorithms themselves only ever evaluate coverage over group nodes.
func (m *Matcher) Matches(p *Pattern) []graph.NodeID {
	covered := m.CoverAmong(p, m.FocusCandidates(p))
	sort.Slice(covered, func(i, j int) bool { return covered[i] < covered[j] })
	return covered
}

// searchScratch is the per-search working state: the partial assignment plus
// epoch-stamped used-marks over the graph's node space (stamp[v] == epoch
// means v is an image of an already-placed pattern node). Unmarking during
// backtracking writes stamp[v] = 0, which can never equal the epoch (epoch
// >= 1), so a search leaves no state the next epoch could misread. Pooled
// per matcher: each concurrent search (coverAmongParallel, the mining score
// workers) acquires its own scratch.
type searchScratch struct {
	assign []graph.NodeID
	stamp  []uint32
	epoch  uint32
	// Matched graph-edge IDs, maintained by search so emit callbacks can
	// union covered edges without re-resolving (pattern edge -> graph edge)
	// through the edge index per embedding. treeID[i] is the edge matched by
	// order[i]'s anchor edge (treeID[0] unused); extraID[i] holds the edges
	// matched by the non-tree pattern edges verified when placing order[i].
	treeID  []graph.EdgeID
	extraID [][]graph.EdgeID
	// backSrc[c.backOff[pos]+i] caches, per recursion level, the fixed-side
	// adjacency list for back edge i of position pos: that endpoint is
	// already mapped and stays put for the whole candidate loop, so its
	// (usually short) list is loaded once and scanned in-cache per candidate.
	backSrc [][]graph.Edge

	// low is the emit low-water mark: the lowest position placed since the
	// previous emitEdges. Positions below it hold the assignment whose edges
	// were already added, so an emit adds positions low.. only.
	low int

	// Final-leaf memo of the uncapped covered-edge union (settleLeaf), keyed
	// by the parent's graph image: memoStamp[p] == epoch marks an entry of
	// this search at memos[memoIdx[p]], whose candidates live in the flat
	// memoFirst / memoBlocked arrays. Allocated on first use only.
	memoStamp   []uint32
	memoIdx     []int32
	memos       []leafMemo
	memoFirst   []graph.NodeID
	memoBlocked []graph.Edge
}

// leafMemo is one parent image's final-leaf entry: memoFirst[first:
// first+nfirst] are the first n filtered candidates' endpoints (witness
// probes) and memoBlocked[blocked:blocked+nblocked] the candidates blocked
// so far, not yet added.
type leafMemo struct {
	first, nfirst     int32
	blocked, nblocked int32
}

// emitEdges adds the matched edges of positions s.low..end-1 to edges and
// marks the current assignment emitted. Every pattern edge is either some
// position's anchor (tree) edge or was verified when its later endpoint was
// placed; search recorded the matched graph edge for both, so the union
// needs no edge-index probes.
func (s *searchScratch) emitEdges(edges *graph.EdgeBits, end int) {
	for pos := s.low; pos < end; pos++ {
		edges.Add(s.treeID[pos])
		for _, id := range s.extraID[pos] {
			edges.Add(id)
		}
	}
	s.low = len(s.treeID)
}

// resetMemo empties the final-leaf memo for a new search over nn nodes.
func (s *searchScratch) resetMemo(nn int) {
	if len(s.memoStamp) < nn {
		s.memoStamp = make([]uint32, nn)
		s.memoIdx = make([]int32, nn)
	}
	s.memos = s.memos[:0]
	s.memoFirst = s.memoFirst[:0]
	s.memoBlocked = s.memoBlocked[:0]
}

// acquireSearch returns a scratch with assign sized for n pattern nodes,
// backSrc sized for the pattern's nback back edges, and stamps covering the
// graph's node space, at a fresh epoch.
func (m *Matcher) acquireSearch(n, nback int) *searchScratch {
	s, _ := m.searchPool.Get().(*searchScratch)
	if s == nil {
		s = &searchScratch{}
	}
	if cap(s.assign) < n {
		s.assign = make([]graph.NodeID, n)
	} else {
		s.assign = s.assign[:n]
	}
	if cap(s.treeID) < n {
		s.treeID = make([]graph.EdgeID, n)
	} else {
		s.treeID = s.treeID[:n]
	}
	if cap(s.extraID) < n {
		grown := make([][]graph.EdgeID, n)
		copy(grown, s.extraID[:cap(s.extraID)])
		s.extraID = grown
	} else {
		s.extraID = s.extraID[:n]
	}
	if cap(s.backSrc) < nback {
		s.backSrc = make([][]graph.Edge, nback)
	} else {
		s.backSrc = s.backSrc[:nback]
	}
	if nn := m.g.NumNodes(); len(s.stamp) < nn {
		grown := make([]uint32, nn)
		copy(grown, s.stamp)
		s.stamp = grown
	}
	s.epoch++
	if s.epoch == 0 {
		clear(s.stamp)
		clear(s.memoStamp)
		s.epoch = 1
	}
	return s
}

// search runs anchored backtracking. emit is called for each embedding found
// with the live scratch (s.assign maps pattern node -> graph node, s.treeID
// and s.extraID carry the matched graph-edge IDs); returning false stops the
// search.
//
// leaf, which callers pass only when c.leafLast holds, replaces the last
// level: it is called once per prefix (positions 0..n-2 placed and
// stamped) with the parent's image, settles every completion of that
// prefix itself, and reports whether there was one. Such a search never
// stops early and counts one embedding per completing prefix.
func (m *Matcher) search(c *compiled, anchor graph.NodeID, emit func(*searchScratch) bool, leaf func(*searchScratch, graph.NodeID) bool) {
	n := len(c.labels)
	s := m.acquireSearch(n, c.nback)
	defer m.searchPool.Put(s)
	if leaf != nil {
		s.resetMemo(m.g.NumNodes())
	}
	s.low = 1
	assign, stamp, epoch := s.assign, s.stamp, s.epoch
	assign[c.order[0]] = anchor
	stamp[anchor] = epoch
	var embeddings, expansions, prunes int64
	defer func() {
		m.searches.Inc()
		m.embeddings.Add(embeddings)
		m.expansions.Add(expansions)
		m.prunes.Add(prunes)
	}()
	var rec func(pos int) bool
	rec = func(pos int) bool {
		if pos == n {
			embeddings++
			return emit(s)
		}
		if leaf != nil && pos == n-1 {
			if leaf(s, assign[c.anchorOf[pos].other]) {
				embeddings++
			}
			return true
		}
		u := c.order[pos]
		a := c.anchorOf[pos]
		backEdges := c.back[pos]
		// nodeOK's checks, hoisted and unrolled: this loop runs once per
		// adjacency entry of every expanded node, and the call overhead is
		// measurable at the million-node tier.
		uBits := c.nodeBits[u]
		uLits := c.lits[u]
		uLabel := c.labels[u]
		nbound := c.nbound
		from := assign[a.other]
		// Hoist each back edge's fixed-side adjacency: the earlier-mapped
		// endpoint w doesn't move during the candidate loop, and in both
		// orientations the list entry's To field carries the candidate
		// endpoint, so verification below is one in-cache scan per candidate
		// instead of an edge-index probe.
		boff := c.backOff[pos]
		for i, e := range backEdges {
			w := assign[e.other]
			if e.out {
				s.backSrc[boff+i] = m.g.In(w)
			} else {
				s.backSrc[boff+i] = m.g.Out(w)
			}
		}
		// Candidates come from the anchor edge: if the edge leaves u, u's
		// image must have an edge to from's image, i.e. scan In(from);
		// otherwise scan Out(from).
		var cands []graph.Edge
		if a.out {
			cands = m.g.In(from)
		} else {
			cands = m.g.Out(from)
		}
		for _, ge := range cands {
			if ge.Label != a.label {
				continue
			}
			v := ge.To
			if stamp[v] == epoch {
				prunes++
				continue
			}
			if int(v) < nbound {
				if !uBits.Has(v) {
					prunes++
					continue
				}
			} else if m.g.LabelIDOf(v) != uLabel {
				prunes++
				continue
			}
			litOK := true
			for _, lit := range uLits {
				if !m.g.HasLiteral(v, lit.Key, lit.Val) {
					litOK = false
					break
				}
			}
			if !litOK {
				prunes++
				continue
			}
			// Verify every other pattern edge between u and mapped nodes,
			// recording the matched graph edges so emit needs no lookups.
			ok := true
			extra := s.extraID[pos][:0]
			for i, e := range backEdges {
				var id graph.EdgeID
				found := false
				if l := s.backSrc[boff+i]; len(l) <= 32 {
					for _, e2 := range l {
						if e2.To == v && e2.Label == e.label {
							id, found = e2.ID, true
							break
						}
					}
				} else if e.out {
					id, found = m.g.EdgeIDBetween(v, assign[e.other], e.label)
				} else {
					id, found = m.g.EdgeIDBetween(assign[e.other], v, e.label)
				}
				if !found {
					ok = false
					break
				}
				extra = append(extra, id)
			}
			s.extraID[pos] = extra
			if !ok {
				prunes++
				continue
			}
			expansions++
			assign[u] = v
			s.treeID[pos] = ge.ID
			stamp[v] = epoch
			if pos < s.low {
				s.low = pos
			}
			cont := rec(pos + 1)
			stamp[v] = 0
			if !cont {
				return false
			}
		}
		return true
	}
	rec(1)
}
