package obs

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// LatencyBuckets is the default histogram bucketing: exponential-ish
// upper bounds in seconds from 10µs to 10s, wide enough to cover both
// a cached in-process query (~tens of µs) and a deadline-bounded worst
// case, with ~2.5× resolution throughout.
var LatencyBuckets = []float64{
	0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram safe for concurrent Observe:
// per-bucket atomic counters, an atomic observation count, and a
// CAS-maintained float sum. Observation is lock-free; Snapshot gives a
// consistent-enough view for reporting (counters are read individually,
// so a snapshot taken mid-observation may be off by the in-flight
// observation — fine for monitoring, and the tests quiesce first).
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // math.Float64bits of the running sum
}

// NewHistogram returns a histogram with the given ascending upper
// bounds; nil means LatencyBuckets. The bounds slice is not copied.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = LatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d", i))
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: the le bucket
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Snapshot captures the histogram's current state for reporting.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a histogram: per-bucket
// (non-cumulative) counts, with Counts[len(Bounds)] holding the +Inf
// overflow bucket.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Quantile estimates the q-th quantile (0 < q <= 1) by linear
// interpolation within the bucket containing the target rank, the same
// estimate Prometheus's histogram_quantile computes. An empty snapshot
// reports 0; ranks landing in the +Inf bucket report the largest finite
// bound (the histogram cannot resolve beyond it).
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := float64(q * float64(s.Count))
	cum := 0.0
	for i, bound := range s.Bounds {
		prev := cum
		cum += float64(s.Counts[i])
		if cum >= rank && s.Counts[i] > 0 {
			lower := 0.0
			if i > 0 {
				lower = s.Bounds[i-1]
			}
			frac := (rank - prev) / float64(s.Counts[i])
			return lower + float64((bound-lower)*frac)
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}
