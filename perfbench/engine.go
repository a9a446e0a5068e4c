package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	fgs "github.com/cwru-db/fgs"
	"github.com/cwru-db/fgs/datasets"
	"github.com/cwru-db/fgs/internal/graph"
	"github.com/cwru-db/fgs/internal/submod"
)

// groupSpec is fgsd's -groups flag: label:attr:val1,val2:lower:upper.
type groupSpec struct {
	label, attr  string
	values       []string
	lower, upper int
}

func (gs groupSpec) build(g *fgs.Graph) (*fgs.Groups, error) {
	return datasets.GroupsByAttr(g, gs.label, gs.attr, gs.values, gs.lower, gs.upper)
}

// encodeGraph is input synthesis: the generated graph as the FGSB bytes a
// deployment would load. Not timed.
func encodeGraph(g *fgs.Graph) ([]byte, error) {
	var buf bytes.Buffer
	if err := fgs.WriteGraphBinary(&buf, g); err != nil {
		return nil, fmt.Errorf("encode graph: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeGraph loads FGSB bytes and reports how long the decode took.
func decodeGraph(fgsb []byte) (*fgs.Graph, time.Duration, error) {
	t0 := time.Now()
	g, err := graph.ReadBinary(bytes.NewReader(fgsb))
	d := time.Since(t0)
	if err != nil {
		return nil, 0, fmt.Errorf("decode graph: %w", err)
	}
	return g, d, nil
}

// engine is one booted fgsd engine: the server, the store it writes to and
// what the store recovered at boot (both nil when in memory only).
type engine struct {
	srv *fgs.Server
	st  *fgs.Store
	rec *fgs.StoreRecovered
}

// bootTimes splits one boot into the calls it made.
type bootTimes struct {
	total, decode, open time.Duration
}

// bootMemory is fgsd's boot without a data directory: decode the graph,
// build the groups, and construct the server (initial Inc-FGS run and
// replica clones included).
func bootMemory(fgsb []byte, gs groupSpec, cfg fgs.ServerConfig) (*engine, bootTimes, error) {
	t0 := time.Now()
	g, dec, err := decodeGraph(fgsb)
	if err != nil {
		return nil, bootTimes{}, err
	}
	groups, err := gs.build(g)
	if err != nil {
		return nil, bootTimes{}, err
	}
	srv, err := fgs.NewServer(g, groups, cfg)
	if err != nil {
		return nil, bootTimes{}, err
	}
	return &engine{srv: srv}, bootTimes{total: time.Since(t0), decode: dec}, nil
}

// bootStore is fgsd's boot with a data directory: open the store (snapshot
// load and WAL scan), then construct the server, which resumes the
// maintainer and replays the WAL tail. A fresh directory boots from fgsb
// and seals epoch 0 with a snapshot.
func bootStore(dir string, fgsb []byte, gs groupSpec, cfg fgs.ServerConfig) (*engine, bootTimes, error) {
	t0 := time.Now()
	st, rec, err := fgs.OpenStore(fgs.StoreOptions{Dir: dir, Fsync: fgs.FsyncGroup})
	if err != nil {
		return nil, bootTimes{}, err
	}
	open := time.Since(t0)
	bt := bootTimes{open: open}
	g := rec.Graph
	if rec.Fresh {
		if g, bt.decode, err = decodeGraph(fgsb); err != nil {
			return nil, bootTimes{}, closeAfter(st, err)
		}
	}
	groups, err := gs.build(g)
	if err != nil {
		return nil, bootTimes{}, closeAfter(st, err)
	}
	cfg.Store = st
	cfg.Resume = rec
	srv, err := fgs.NewServer(g, groups, cfg)
	if err != nil {
		return nil, bootTimes{}, closeAfter(st, err)
	}
	bt.total = time.Since(t0)
	return &engine{srv: srv, st: st, rec: rec}, bt, nil
}

func closeAfter(st *fgs.Store, err error) error {
	if cerr := st.Close(); cerr != nil {
		return fmt.Errorf("%w (closing the store: %v)", err, cerr)
	}
	return err
}

// close ends the engine the way a crash would for the store: the WAL is
// closed without a final snapshot, so a restart must replay its tail.
func (e *engine) close() error {
	if e.st == nil {
		return nil
	}
	return e.st.Close()
}

// scrape reads the engine's /metrics exposition and sums each series over
// its labels; histograms yield name_sum and name_count.
func scrape(c *client) (map[string]float64, error) {
	resp, err := c.mustOK(get("control", "/metrics"))
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(resp.body))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		line, _, _ = strings.Cut(line, " # ") // drop exemplars
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// histMean is a scraped histogram's mean (0 when it has no observations).
func histMean(m map[string]float64, name string) (float64, int) {
	n := m[name+"_count"]
	if n == 0 {
		return 0, 0
	}
	return m[name+"_sum"] / n, int(n)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return parseHWM(f)
}

func parseHWM(r io.Reader) (float64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("unexpected VmHWM line %q", sc.Text())
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// buildUtility mirrors how fgsd turns a request's utility spec into a
// utility, so the gate and the replay compute what the server computed.
func buildUtility(g *graph.Graph, spec string) (submod.Utility, error) {
	kind, arg, _ := strings.Cut(spec, ":")
	switch kind {
	case "", "coverage":
		return submod.NewNeighborCoverage(g, submod.NeighborsIn, arg), nil
	case "rating":
		if arg == "" {
			arg = "rating"
		}
		return submod.NewRatingSum(g, arg), nil
	case "diversity":
		return submod.NewAttributeDiversity(g, arg), nil
	case "cardinality":
		return submod.NewCardinality(), nil
	}
	return nil, fmt.Errorf("unknown utility %q", spec)
}

// copyDir copies a flat data directory (fgstore keeps no subdirectories).
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.IsDir() {
			return fmt.Errorf("copy %s: unexpected subdirectory %s", src, e.Name())
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// settle drops the previous engine's memory before the next boot, so peak
// RSS reflects one engine rather than whichever garbage was still live.
func settle() { runtime.GC() }
