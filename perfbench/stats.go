package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: with fewer, one outlier moves it, so it is not a measurement.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs
// and whether it is reportable, i.e. at least minBeyond samples rank above
// it. xs need not be sorted; it is not modified. +Inf samples (failed
// requests) sort last, so failures push percentiles up instead of vanishing.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p > 100 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n-rank >= minBeyond
}

// median is the middle value (mean of the two middle ones for even counts).
// It is used for small repetition counts, such as set-up runs, where the
// percentile rule does not apply.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// series collects one request class's latencies in milliseconds. A failed
// request (non-2xx or timed out) is recorded as +Inf: it counts as attempted
// and failed, and it misses every latency limit.
type series struct {
	ms     []float64
	failed int
}

func (s *series) add(d time.Duration, ok bool) {
	if !ok {
		s.failed++
		s.ms = append(s.ms, math.Inf(1))
		return
	}
	s.ms = append(s.ms, float64(d)/float64(time.Millisecond))
}

func (s *series) attempted() int { return len(s.ms) }

// missed counts requests that failed or took longer than limit.
func (s *series) missed(limit time.Duration) int {
	lim := float64(limit) / float64(time.Millisecond)
	n := 0
	for _, v := range s.ms {
		if v > lim {
			n++
		}
	}
	return n
}

// metricName is the grammar every reported metric name follows.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metric is one reported value with its unit and sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

// metricSet holds a run's metrics in insertion order for the text table.
type metricSet struct {
	order []string
	byKey map[string]metric
}

func newMetricSet() *metricSet { return &metricSet{byKey: map[string]metric{}} }

// set records a metric; n is the number of samples behind it. A name
// outside the grammar, a repeated name, or a value that is not finite is a
// bug in the benchmark and is returned as an error.
func (ms *metricSet) set(name, unit string, v float64, n int) error {
	if !metricName.MatchString(name) {
		return fmt.Errorf("metric name %q does not match %s", name, metricName)
	}
	if _, dup := ms.byKey[name]; dup {
		return fmt.Errorf("metric %q reported twice", name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("metric %q is not finite (%v)", name, v)
	}
	ms.order = append(ms.order, name)
	ms.byKey[name] = metric{Value: v, Unit: unit, n: n}
	return nil
}
