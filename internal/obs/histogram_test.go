package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestHistogramObserveAndCount(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// le semantics: 0.5 and 1 land in le=1; 1.5 in le=2; 3 in le=4; 100 overflows.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 5 {
		t.Errorf("count = %d, want 5", s.Count)
	}
	if math.Abs(s.Sum-106) > 1e-9 {
		t.Errorf("sum = %v, want 106", s.Sum)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := NewHistogram(nil) // LatencyBuckets
	h.ObserveDuration(30 * time.Microsecond)
	s := h.Snapshot()
	// 30µs lands in the le=50µs bucket (index 2 of LatencyBuckets).
	if s.Counts[2] != 1 {
		t.Fatalf("30µs bucketed wrong: %v", s.Counts)
	}
}

func TestQuantile(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 30, 40})
	// 100 observations uniform over (0, 40]: 25 per bucket.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.4)
	}
	s := h.Snapshot()
	cases := []struct{ q, want, tol float64 }{
		{0.5, 20, 0.5},   // median at the 20 boundary
		{0.25, 10, 0.5},  // p25 at the 10 boundary
		{0.95, 38, 0.5},  // p95 inside the last bucket
		{1.0, 40, 0.01},  // max
		{0.01, 0.4, 0.5}, // p1 near the bottom
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); math.Abs(got-c.want) > c.tol {
			t.Errorf("q%.2f = %v, want ~%v", c.q, got, c.want)
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	h := NewHistogram([]float64{1, 2})
	h.Observe(50) // only the +Inf bucket
	if got := h.Snapshot().Quantile(0.5); got != 2 {
		t.Errorf("overflow-only quantile = %v, want last finite bound 2", got)
	}
	// Out-of-range q values clamp instead of misbehaving.
	h2 := NewHistogram([]float64{1, 2})
	h2.Observe(0.5)
	if got := h2.Snapshot().Quantile(1.5); got == math.Inf(1) || math.IsNaN(got) {
		t.Errorf("clamped quantile = %v", got)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(nil)
	var wg sync.WaitGroup
	const workers, per = 8, 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	if math.Abs(s.Sum-float64(workers*per)*0.001) > 1e-6 {
		t.Fatalf("sum = %v", s.Sum)
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-ascending bounds")
		}
	}()
	NewHistogram([]float64{1, 1})
}
