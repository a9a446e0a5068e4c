package main

import (
	"context"
	"fmt"
	"math/bits"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// request is one HTTP call into the engine's handler.
type request struct {
	class  string // summarize, view, update, workload, stats, or control
	method string
	path   string
	body   string
}

// key identifies a request: at one epoch, requests with the same key must
// get the same body.
func (r request) key() string { return r.method + " " + r.path + " " + r.body }

func (r request) String() string {
	if r.body == "" {
		return r.method + " " + r.path
	}
	body := r.body
	if len(body) > 160 {
		body = body[:160] + "..."
	}
	return r.method + " " + r.path + " " + body
}

func post(class, path, body string) request {
	return request{class: class, method: http.MethodPost, path: path, body: body}
}

func get(class, path string) request {
	return request{class: class, method: http.MethodGet, path: path}
}

// response is what one call returned and how long it took: latency from
// when the request was sent, late how far behind its pace it was sent.
type response struct {
	req     request
	status  int
	latency time.Duration
	late    time.Duration
	end     time.Duration // completion, since the load phase started
	timing  string        // Server-Timing header
	hit     bool          // X-Fgs-Cache: hit
	body    []byte
	traced  bool
}

func (r response) ok() bool { return r.status >= 200 && r.status < 300 }

// client drives the handler in process: no sockets, one goroutine per call
// so a call that overruns its timeout can be abandoned. Past the timeout
// the run is over: the algorithms cannot be preempted, so the handler
// goroutine would keep a CPU busy, and overrun is reported through
// onTimeout, which does not return.
type client struct {
	h         http.Handler
	timeout   time.Duration
	onTimeout func(r request, after time.Duration)
	tr        *tracer // nil: no spans recorded
}

func (c *client) do(r request, traced bool) response {
	var hr *http.Request
	if r.body != "" {
		hr = httptest.NewRequest(r.method, r.path, strings.NewReader(r.body))
		hr.Header.Set("Content-Type", "application/json")
	} else {
		hr = httptest.NewRequest(r.method, r.path, nil)
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
	defer cancel()
	hr = hr.WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	timer := time.NewTimer(c.timeout)
	defer timer.Stop()
	t0 := time.Now()
	go func() {
		defer close(done)
		c.h.ServeHTTP(rec, hr)
	}()
	select {
	case <-done:
	case <-timer.C:
		c.onTimeout(r, time.Since(t0))
		<-done // onTimeout ends the process; this is never reached
	}
	timing := rec.Header().Get("Server-Timing")
	if traced && c.tr != nil {
		// Recording the spans is part of a traced call's latency: that is
		// the cost the tracing overhead metrics measure.
		c.tr.request(r.class, t0, time.Since(t0), timing)
	}
	return response{
		req:     r,
		status:  rec.Code,
		latency: time.Since(t0),
		timing:  timing,
		hit:     rec.Header().Get("X-Fgs-Cache") == "hit",
		body:    rec.Body.Bytes(),
		traced:  traced,
	}
}

// mustOK calls r and turns a non-2xx answer into an error; for set-up and
// gate calls, whose failure ends the run.
func (c *client) mustOK(r request) (response, error) {
	resp := c.do(r, false)
	if !resp.ok() {
		return resp, fmt.Errorf("%s: status %d: %s", r, resp.status, strings.TrimSpace(string(resp.body)))
	}
	return resp, nil
}

// closedLoop runs `clients` callers that each send their next request as
// soon as the previous one completes, taking requests in order from next.
// It stops sending after dur, but keeps going until at least minSamples
// calls completed, so a slower build still yields a reportable tail; the
// run's wall budget bounds that extension. With trace, half the calls are
// traced (see tracedCall). The returned window is how long the loop was
// sending: calls that completed after it do not count towards throughput.
func closedLoop(c *client, clients int, dur time.Duration, minSamples int, trace bool, next func(i int) request) ([]response, time.Duration) {
	var (
		idx  atomic.Int64
		done atomic.Int64
		wg   sync.WaitGroup
	)
	out := make([][]response, clients)
	start := time.Now()
	end := start.Add(dur)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(end) || done.Load() < int64(minSamples) {
				i := int(idx.Add(1) - 1)
				resp := c.do(next(i), tracedCall(trace, i))
				resp.end = time.Since(start)
				out[w] = append(out[w], resp)
				done.Add(1)
			}
		}(w)
	}
	wg.Wait()
	var all []response
	var ends []time.Duration
	for _, rs := range out {
		all = append(all, rs...)
		for _, r := range rs {
			ends = append(ends, r.end)
		}
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	window := dur
	if minSamples > 0 && len(ends) >= minSamples && ends[minSamples-1] > window {
		window = ends[minSamples-1]
	}
	return all, window
}

// pacedLoop is one caller that sends a request every interval until stop
// is closed, or immediately when the previous call overran its slot.
func pacedLoop(c *client, interval time.Duration, stop <-chan struct{}, trace bool, next func(i int) request) []response {
	var out []response
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			select {
			case <-stop:
				return out
			case <-time.After(d):
			}
		}
		select {
		case <-stop:
			return out
		default:
		}
		late := time.Since(due)
		resp := c.do(next(i), tracedCall(trace, i))
		resp.late = late
		resp.end = time.Since(start)
		out = append(out, resp)
	}
}

// tracedCall picks the traced half of a traced run's calls: call i is
// traced when i has an odd number of one bits (the Thue-Morse sequence).
// Unlike every other call, this does not line up with request lists that
// cycle with an even period, so both halves see the same mix of requests.
func tracedCall(trace bool, i int) bool { return trace && bits.OnesCount(uint(i))%2 == 1 }

// completedIn counts the successful responses that completed within the
// first window of the load phase.
func completedIn(rs []response, window time.Duration) int {
	n := 0
	for _, r := range rs {
		if r.ok() && r.end <= window {
			n++
		}
	}
	return n
}

// byClass splits responses into latency series per request class.
func byClass(rs []response) map[string]*series {
	out := map[string]*series{}
	for _, r := range rs {
		s := out[r.req.class]
		if s == nil {
			s = &series{}
			out[r.req.class] = s
		}
		s.add(r.latency, r.ok())
	}
	return out
}
