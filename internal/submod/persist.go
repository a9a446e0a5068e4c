package submod

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"github.com/cwru-db/fgs/internal/graph"
)

// Durability support (DESIGN.md §15): fgstore snapshots checkpoint the
// streaming selector so crash recovery reproduces the maintainer's future
// decisions exactly, not just its current outputs.
//
// Most utilities need no state of their own in the checkpoint: RatingSum,
// Cardinality, and AttributeDiversity are pure functions of the selected set
// (their auxiliary tables — ratings, attribute values — are fixed at
// construction and untouched by edge updates), so Reset + Add over the
// restored selection rebuilds them exactly. NeighborCoverage is the
// exception: its reference counts record each member's neighbors *as of the
// moment it was added*, and edges inserted later do not retroactively update
// them — the state depends on the interleaving of Add calls and graph
// mutations, which replay from the final graph cannot reproduce. Such
// utilities implement StateCodec and are checkpointed verbatim.

// StateCodec is the optional interface a Utility implements when its
// internal state is not a pure function of (current graph, selected set).
// SaveState must be deterministic (no map-iteration-ordered output) and
// LoadState must restore exactly what SaveState wrote, including the current
// set, so the restorer skips the Reset+Add rebuild entirely.
type StateCodec interface {
	SaveState(w io.Writer) error
	LoadState(r io.Reader) error
}

// StreamerState is a Streamer checkpoint: everything future Process and
// PostSelect calls depend on. Weights is parallel to Selected (the weight
// w(v) recorded when v was accepted — the swap rule compares against the
// recorded weight, not a recomputed marginal); Buckets holds the rejected
// nodes per group, each once, in order of first rejection (PostSelect's
// candidate pool). Utility carries the opaque StateCodec bytes, nil when
// the utility rebuilds from the selection.
type StreamerState struct {
	Selected []graph.NodeID
	Weights  []float64
	Buckets  [][]graph.NodeID
	Utility  []byte
}

// Checkpoint captures the streamer's state. The returned slices are copies;
// the streamer remains live and unchanged.
func (s *Streamer) Checkpoint() (*StreamerState, error) {
	st := &StreamerState{
		Selected: append([]graph.NodeID(nil), s.order...),
		Weights:  make([]float64, len(s.order)),
		Buckets:  make([][]graph.NodeID, len(s.buckets)),
	}
	for i, v := range s.order {
		st.Weights[i] = s.weights[v]
	}
	for gi, b := range s.buckets {
		st.Buckets[gi] = append([]graph.NodeID(nil), b...)
	}
	if sc, ok := s.util.(StateCodec); ok {
		var buf bytes.Buffer
		if err := sc.SaveState(&buf); err != nil {
			return nil, fmt.Errorf("submod: checkpoint utility: %w", err)
		}
		st.Utility = buf.Bytes()
	}
	return st, nil
}

// ResumeStreamer rebuilds a streamer from a checkpoint. The utility's state
// is restored through its StateCodec when the checkpoint carries bytes,
// otherwise by re-adding the selection in order; either way the utility's
// current set ends up equal to st.Selected.
func ResumeStreamer(groups *Groups, util Utility, n int, st *StreamerState) (*Streamer, error) {
	if len(st.Weights) != len(st.Selected) {
		return nil, fmt.Errorf("submod: resume: %d weights for %d selected nodes", len(st.Weights), len(st.Selected))
	}
	if len(st.Buckets) != 0 && len(st.Buckets) != groups.Len() {
		return nil, fmt.Errorf("submod: resume: %d buckets for %d groups", len(st.Buckets), groups.Len())
	}
	s := NewStreamer(groups, util, n) // calls util.Reset()
	if st.Utility != nil {
		sc, ok := util.(StateCodec)
		if !ok {
			return nil, fmt.Errorf("submod: resume: checkpoint has utility state but %T implements no StateCodec", util)
		}
		if err := sc.LoadState(bytes.NewReader(st.Utility)); err != nil {
			return nil, fmt.Errorf("submod: resume utility: %w", err)
		}
	}
	for i, v := range st.Selected {
		gi, ok := groups.IndexOf(v)
		if !ok {
			return nil, fmt.Errorf("submod: resume: selected node %d is in no group", v)
		}
		if s.selected.Has(v) {
			return nil, fmt.Errorf("submod: resume: node %d selected twice", v)
		}
		if st.Utility == nil {
			s.util.Add(v)
		}
		s.selected.Add(v)
		s.order = append(s.order, v)
		s.counts[gi]++
		s.weights[v] = st.Weights[i]
	}
	// Checkpoints written before buckets were deduplicated may list a node
	// several times; its first entry is the one PostSelect would have used.
	for gi, b := range st.Buckets {
		for _, v := range b {
			s.bucket(gi, v)
		}
	}
	return s, nil
}

// --- NeighborCoverage state codec ---------------------------------------

// SaveState implements StateCodec: reference counts (sparse, in node-ID
// order — a slice scan, so the output is deterministic), the covered-node
// count, and the current set.
func (nc *NeighborCoverage) SaveState(w io.Writer) error {
	var scratch [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := w.Write(scratch[:n])
		return err
	}
	nonzero := 0
	for _, r := range nc.refs {
		if r != 0 {
			nonzero++
		}
	}
	if err := put(uint64(nonzero)); err != nil {
		return err
	}
	for v, r := range nc.refs {
		if r == 0 {
			continue
		}
		if err := put(uint64(v)); err != nil {
			return err
		}
		if err := put(uint64(r)); err != nil {
			return err
		}
	}
	if err := put(uint64(nc.value)); err != nil {
		return err
	}
	if err := put(uint64(nc.cur.Count())); err != nil {
		return err
	}
	var ierr error
	nc.cur.Iterate(func(v graph.NodeID) {
		if ierr == nil {
			ierr = put(uint64(v))
		}
	})
	return ierr
}

// LoadState implements StateCodec.
func (nc *NeighborCoverage) LoadState(r io.Reader) error {
	br, ok := r.(io.ByteReader)
	if !ok {
		return fmt.Errorf("submod: NeighborCoverage.LoadState needs an io.ByteReader")
	}
	get := func(what string) (uint64, error) {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, fmt.Errorf("submod: load coverage state %s: %w", what, err)
		}
		return v, nil
	}
	nc.Reset()
	n := nc.g.NumNodes()
	if len(nc.refs) < n {
		nc.refs = make([]int32, n)
		nc.stamp = make([]uint32, n)
		nc.epoch = 0
	}
	nonzero, err := get("ref count")
	if err != nil {
		return err
	}
	for i := uint64(0); i < nonzero; i++ {
		v, err := get("ref node")
		if err != nil {
			return err
		}
		c, err := get("ref value")
		if err != nil {
			return err
		}
		if v >= uint64(len(nc.refs)) {
			return fmt.Errorf("submod: load coverage state: ref node %d out of range", v)
		}
		nc.refs[v] = int32(c)
	}
	value, err := get("value")
	if err != nil {
		return err
	}
	nc.value = int(value)
	curLen, err := get("current-set size")
	if err != nil {
		return err
	}
	for i := uint64(0); i < curLen; i++ {
		v, err := get("current-set node")
		if err != nil {
			return err
		}
		if v >= uint64(n) {
			return fmt.Errorf("submod: load coverage state: selected node %d out of range", v)
		}
		nc.cur.Add(graph.NodeID(v))
	}
	return nil
}
