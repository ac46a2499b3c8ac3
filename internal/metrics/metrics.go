// Package metrics provides the lightweight measurement primitives the
// harness uses: latency histograms, throughput time series, and per-phase
// breakdown accumulators. All types are safe for concurrent use.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Histogram records durations into logarithmically spaced buckets
// (sub-microsecond through ~17 minutes) and reports percentiles. Recording is
// a single atomic add; it is safe to share one histogram across workers.
type Histogram struct {
	buckets [numBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64
}

const (
	// Buckets: 8 per power of two of nanoseconds, covering 2^9ns (512ns)
	// granularity at the low end up to 2^40ns (~18 min).
	bucketsPerPow = 8
	minPow        = 9
	maxPow        = 40
	numBuckets    = (maxPow - minPow) * bucketsPerPow
)

func bucketFor(ns int64) int {
	if ns < 1<<minPow {
		return 0
	}
	pow := 63 - bits.LeadingZeros64(uint64(ns))
	if pow >= maxPow {
		return numBuckets - 1
	}
	// Sub-bucket by the next bucketsPerPow bits below the top bit.
	sub := (ns >> (uint(pow) - log2BucketsPerPow)) & (bucketsPerPow - 1)
	idx := (pow-minPow)*bucketsPerPow + int(sub)
	if idx < 0 {
		return 0
	}
	if idx >= numBuckets {
		return numBuckets - 1
	}
	return idx
}

const log2BucketsPerPow = 3 // log2(bucketsPerPow)

func bucketUpper(i int) time.Duration {
	pow := minPow + i/bucketsPerPow
	sub := i % bucketsPerPow
	base := int64(1) << uint(pow)
	step := base >> log2BucketsPerPow
	return time.Duration(base + int64(sub+1)*step)
}

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketFor(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Mean returns the mean observed duration.
func (h *Histogram) Mean() time.Duration {
	c := h.count.Load()
	if c == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / c)
}

// Max returns the largest observed duration.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Percentile returns an upper bound on the p-th percentile (0 < p <= 100).
func (h *Histogram) Percentile(p float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(float64(total) * p / 100))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := 0; i < numBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= target {
			return bucketUpper(i)
		}
	}
	return h.Max()
}

// Reset zeroes the histogram.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
}

// Snapshot returns a human-readable summary.
func (h *Histogram) Snapshot() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		h.Count(), h.Mean(), h.Percentile(50), h.Percentile(95), h.Percentile(99), h.Max())
}

// DurationSum accumulates wall time from concurrent contributors with a
// single atomic add per record; the reload pipeline's readers and decode
// workers share one per stage.
type DurationSum struct{ ns atomic.Int64 }

// Add accumulates d.
func (s *DurationSum) Add(d time.Duration) { s.ns.Add(int64(d)) }

// AddSince accumulates the time elapsed since t0.
func (s *DurationSum) AddSince(t0 time.Time) { s.ns.Add(int64(time.Since(t0))) }

// Load returns the accumulated total.
func (s *DurationSum) Load() time.Duration { return time.Duration(s.ns.Load()) }

// Pct returns part as a percentage of whole (0 when whole is 0).
func Pct(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return float64(part) / float64(whole) * 100
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// TimeSeries samples a counter at fixed intervals to produce the
// throughput-over-time traces in Figures 11 and 12.
type TimeSeries struct {
	mu      sync.Mutex
	samples []Sample
}

// Sample is one point of a time series.
type Sample struct {
	At    time.Duration // offset from the start of the run
	Value float64
}

// Append records one sample.
func (ts *TimeSeries) Append(at time.Duration, v float64) {
	ts.mu.Lock()
	ts.samples = append(ts.samples, Sample{At: at, Value: v})
	ts.mu.Unlock()
}

// Samples returns a copy of the recorded samples in append order.
func (ts *TimeSeries) Samples() []Sample {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return append([]Sample(nil), ts.samples...)
}

// Breakdown accumulates wall time attributed to named phases; it backs the
// Figure 20 recovery-time breakdown. Phases are registered up front so
// recording is a lock-free atomic add.
type Breakdown struct {
	names []string
	index map[string]int
	ns    []atomic.Int64
}

// NewBreakdown creates a breakdown over the given phase names.
func NewBreakdown(names ...string) *Breakdown {
	b := &Breakdown{
		names: append([]string(nil), names...),
		index: make(map[string]int, len(names)),
		ns:    make([]atomic.Int64, len(names)),
	}
	for i, n := range names {
		b.index[n] = i
	}
	return b
}

// Add attributes d of wall time to the named phase. Unknown names panic:
// phase sets are static.
func (b *Breakdown) Add(name string, d time.Duration) {
	b.ns[b.index[name]].Add(int64(d))
}

// Timed runs f and attributes its wall time to the named phase.
func (b *Breakdown) Timed(name string, f func()) {
	start := time.Now()
	f()
	b.Add(name, time.Since(start))
}

// Total returns the sum over all phases.
func (b *Breakdown) Total() time.Duration {
	var t int64
	for i := range b.ns {
		t += b.ns[i].Load()
	}
	return time.Duration(t)
}

// Shares returns each phase's fraction of the total, keyed by name,
// in registration order.
func (b *Breakdown) Shares() []PhaseShare {
	total := float64(b.Total())
	out := make([]PhaseShare, len(b.names))
	for i, n := range b.names {
		v := b.ns[i].Load()
		share := 0.0
		if total > 0 {
			share = float64(v) / total
		}
		out[i] = PhaseShare{Name: n, Time: time.Duration(v), Share: share}
	}
	return out
}

// Get returns the accumulated time for one phase.
func (b *Breakdown) Get(name string) time.Duration {
	return time.Duration(b.ns[b.index[name]].Load())
}

// PhaseShare is one row of a Breakdown report.
type PhaseShare struct {
	Name  string
	Time  time.Duration
	Share float64
}

// SortedKeys returns map keys in sorted order; a small convenience for
// deterministic report printing.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
