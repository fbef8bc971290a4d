package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 <= p <= 1) of sorted by linear
// interpolation between the two nearest ranks; NaN for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

// sortedCopy returns vs sorted ascending without touching the input.
func sortedCopy(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

// median is the 0.5 percentile of an unsorted sample.
func median(vs []float64) float64 { return percentile(sortedCopy(vs), 0.5) }

// spread is the interquartile range of vs as a share of its median: the
// run-validity number printed beside every slice-median metric. 0 when
// the median is 0 or the sample is too small to have quartiles.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := sortedCopy(vs)
	med := percentile(s, 0.5)
	if med == 0 {
		return 0
	}
	return (percentile(s, 0.75) - percentile(s, 0.25)) / math.Abs(med)
}

// sample is one timed operation: when it completed (ns since the phase
// start) and how long it took.
type sample struct {
	at  int64
	lat int64
}

// sliceStats cuts a timed phase of length dur into n equal slices and
// returns, per slice, the latency p50 and p95 in microseconds and the
// completions per second. Samples completing at or after dur are
// dropped: the closed loop's last request straddles the deadline.
func sliceStats(samples []sample, dur int64, n int) (p50, p95, qps []float64) {
	buckets := make([][]float64, n)
	width := dur / int64(n)
	for _, s := range samples {
		if s.at < 0 || s.at >= width*int64(n) {
			continue
		}
		i := int(s.at / width)
		buckets[i] = append(buckets[i], float64(s.lat)/1e3)
	}
	for _, b := range buckets {
		qps = append(qps, float64(len(b))/(float64(width)/1e9))
		if len(b) == 0 {
			// A stalled slice has no latency to report; its zero
			// throughput still counts.
			continue
		}
		sort.Float64s(b)
		p50 = append(p50, percentile(b, 0.50))
		p95 = append(p95, percentile(b, 0.95))
	}
	return p50, p95, qps
}
