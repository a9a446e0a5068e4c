package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	fgs "github.com/cwru-db/fgs"
)

// The correctness gates. A gate failure fails the run.

// servedSummary splits a summarize response into its epoch and the summary
// bytes exactly as served.
func servedSummary(body []byte) (uint64, json.RawMessage, error) {
	var sr fgs.ServerSummarizeResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return 0, nil, fmt.Errorf("summarize response: %w", err)
	}
	return sr.Epoch, sr.Summary, nil
}

// gateHubs checks every distinct hubs response: identical requests got
// identical bodies, each summary is byte-equal to the library's
// Summarize/SummarizeK plus WriteSummaryJSON on an identically decoded
// graph, and each passes Verify's feasibility checks, group bounds and
// lossless reconstruction included.
func gateHubs(fgsb []byte, reqs []sumParams, rs []response, workers int) error {
	served := map[string][]byte{}
	for _, x := range rs {
		if !x.ok() {
			return fmt.Errorf("%s: status %d", x.req, x.status)
		}
		k := x.req.key()
		if prev, ok := served[k]; ok && !bytes.Equal(prev, x.body) {
			return fmt.Errorf("%s: two different bodies for one request at one epoch", x.req)
		}
		served[k] = x.body
	}
	var todo []sumParams
	for _, p := range reqs {
		if _, ok := served[p.request().key()]; ok {
			todo = append(todo, p)
		}
	}
	errs := make([]error, len(todo))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, p := range todo {
		wg.Add(1)
		go func(i int, p sumParams) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = checkSummary(fgsb, hubsGroups, p, served[p.request().key()])
		}(i, p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func checkSummary(fgsb []byte, gs groupSpec, p sumParams, body []byte) error {
	epoch, got, err := servedSummary(body)
	if err != nil {
		return err
	}
	if epoch != 0 {
		return fmt.Errorf("%s: served at epoch %d, want 0 (no writes)", p.request(), epoch)
	}
	g, _, err := decodeGraph(fgsb)
	if err != nil {
		return err
	}
	groups, err := gs.build(g)
	if err != nil {
		return err
	}
	util, err := buildUtility(g, p.Utility)
	if err != nil {
		return err
	}
	cfg := fgs.Config{R: p.R, K: p.K, N: p.N}
	var sum *fgs.Summary
	if p.K > 0 {
		sum, err = fgs.SummarizeK(g, groups, util, cfg)
	} else {
		sum, err = fgs.Summarize(g, groups, util, cfg)
	}
	if err != nil {
		return fmt.Errorf("%s: library: %w", p.request(), err)
	}
	var buf, want bytes.Buffer
	if err := fgs.WriteSummaryJSON(&buf, sum, g); err != nil {
		return err
	}
	if err := json.Compact(&want, buf.Bytes()); err != nil {
		return err
	}
	if !bytes.Equal(want.Bytes(), got) {
		return fmt.Errorf("%s: served summary (%d bytes) differs from the library's (%d bytes)", p.request(), len(got), want.Len())
	}
	s, err := fgs.ReadSummaryJSON(bytes.NewReader(got), g, 0)
	if err != nil {
		return fmt.Errorf("%s: read served summary: %w", p.request(), err)
	}
	vutil, err := buildUtility(g, p.Utility)
	if err != nil {
		return err
	}
	if rep := fgs.Verify(g, groups, vutil, cfg, s, math.MaxInt, 0); !rep.Feasible() {
		return fmt.Errorf("%s: served summary fails verification: %s", p.request(), rep)
	}
	return nil
}

// engineState is what must survive a crash: the engine part of /v1/stats
// (epoch, sizes, maintained-summary stats; the cache, admission and MVCC
// counters belong to the process, not the data) and a canonical summarize
// body.
type engineState struct {
	stats, summary []byte
}

func captureState(c *client) (engineState, error) {
	resp, err := c.mustOK(get("control", "/v1/stats"))
	if err != nil {
		return engineState{}, err
	}
	var st fgs.ServerStatsResponse
	if err := json.Unmarshal(resp.body, &st); err != nil {
		return engineState{}, fmt.Errorf("stats response: %w", err)
	}
	proj, err := json.Marshal(struct {
		Epoch   uint64 `json:"epoch"`
		Nodes   int    `json:"nodes"`
		Edges   int    `json:"edges"`
		Groups  int    `json:"groups"`
		Summary any    `json:"summary"`
	}{st.Epoch, st.Nodes, st.Edges, st.Groups, st.Summary})
	if err != nil {
		return engineState{}, err
	}
	sresp, err := c.mustOK(ingestCanonical.request())
	if err != nil {
		return engineState{}, err
	}
	return engineState{stats: proj, summary: sresp.body}, nil
}

func (want engineState) check(c *client, when string) error {
	got, err := captureState(c)
	if err != nil {
		return err
	}
	if !bytes.Equal(got.stats, want.stats) {
		return fmt.Errorf("%s: stats %s, want %s", when, got.stats, want.stats)
	}
	if !bytes.Equal(got.summary, want.summary) {
		return fmt.Errorf("%s: canonical summarize body differs (%d bytes, want %d)", when, len(got.summary), len(want.summary))
	}
	return nil
}
