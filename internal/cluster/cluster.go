// Package cluster groups videos by their semantic event profiles: the
// stated purpose of the paper's video-level MMM ("The purpose of
// constructing video-level MMM is to cluster the videos describing
// similar events ... the system is able to learn the semantic concepts
// and then cluster the videos into different categories", Section 4.2.2).
//
// The algorithm is k-means with k-means++ seeding over the L1-normalized
// rows of B2 (each video's event-count profile becomes an event
// distribution), deterministic in the seed. Quality helpers compute the
// silhouette coefficient and, when ground-truth labels exist, cluster
// purity.
package cluster

import (
	"errors"
	"fmt"
	"math"

	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/xrand"
)

// Result is a clustering of n items into k clusters.
type Result struct {
	Assign    []int       // item -> cluster index
	Centroids [][]float64 // k centroid vectors
	Inertia   float64     // sum of squared distances to assigned centroids
	Iters     int         // iterations until convergence
}

// Size returns the number of items in cluster c.
func (r *Result) Size(c int) int {
	n := 0
	for _, a := range r.Assign {
		if a == c {
			n++
		}
	}
	return n
}

// KMeans clusters the row vectors into k groups. Seeding is k-means++
// driven by seed; iteration stops when assignments stabilize or after
// maxIter rounds (0 selects 100).
func KMeans(rows [][]float64, k int, seed uint64, maxIter int) (*Result, error) {
	n := len(rows)
	if k <= 0 {
		return nil, fmt.Errorf("cluster: k = %d", k)
	}
	if n < k {
		return nil, fmt.Errorf("cluster: %d items for k = %d", n, k)
	}
	dim := len(rows[0])
	for i, r := range rows {
		if len(r) != dim {
			return nil, fmt.Errorf("cluster: row %d has %d dims, want %d", i, len(r), dim)
		}
	}
	if maxIter <= 0 {
		maxIter = 100
	}
	rng := xrand.New(seed)

	// k-means++ seeding.
	centroids := make([][]float64, 0, k)
	first := rng.Intn(n)
	centroids = append(centroids, append([]float64(nil), rows[first]...))
	d2 := make([]float64, n)
	for len(centroids) < k {
		var total float64
		for i, r := range rows {
			d2[i] = sqDist(r, centroids[0])
			for _, c := range centroids[1:] {
				if d := sqDist(r, c); d < d2[i] {
					d2[i] = d
				}
			}
			total += d2[i]
		}
		var next int
		if total == 0 {
			next = rng.Intn(n)
		} else {
			next = rng.Choice(d2)
		}
		centroids = append(centroids, append([]float64(nil), rows[next]...))
	}

	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	var inertia float64
	iters := 0
	for ; iters < maxIter; iters++ {
		changed := false
		inertia = 0
		for i, r := range rows {
			best, bestD := 0, sqDist(r, centroids[0])
			for c := 1; c < k; c++ {
				if d := sqDist(r, centroids[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
			inertia += bestD
		}
		if !changed {
			break
		}
		// Recompute centroids; empty clusters re-seed on the farthest item.
		counts := make([]int, k)
		sums := make([][]float64, k)
		for c := range sums {
			sums[c] = make([]float64, dim)
		}
		for i, r := range rows {
			c := assign[i]
			counts[c]++
			for j, v := range r {
				sums[c][j] += v
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				far, farD := 0, -1.0
				for i, r := range rows {
					if d := sqDist(r, centroids[assign[i]]); d > farD {
						far, farD = i, d
					}
				}
				copy(centroids[c], rows[far])
				continue
			}
			for j := range sums[c] {
				centroids[c][j] = sums[c][j] / float64(counts[c])
			}
		}
	}
	return &Result{Assign: assign, Centroids: centroids, Inertia: inertia, Iters: iters}, nil
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += float64(d * d)
	}
	return s
}

// Videos clusters a model's videos by their L1-normalized B2 event
// profiles.
func Videos(m *hmmm.Model, k int, seed uint64) (*Result, error) {
	if m == nil {
		return nil, errors.New("cluster: nil model")
	}
	rows := make([][]float64, m.NumVideos())
	for vi := range rows {
		row := append([]float64(nil), m.B2.Row(vi)...)
		var sum float64
		for _, v := range row {
			sum += v
		}
		if sum > 0 {
			for j := range row {
				row[j] /= sum
			}
		}
		rows[vi] = row
	}
	return KMeans(rows, k, seed, 0)
}

// Silhouette returns the mean silhouette coefficient of the clustering
// over the given rows: +1 is perfectly separated, 0 indifferent, negative
// misassigned. Items in singleton clusters contribute 0.
func Silhouette(rows [][]float64, assign []int, k int) float64 {
	n := len(rows)
	if n == 0 || n != len(assign) {
		return 0
	}
	var total float64
	for i := range rows {
		var intra, intraN float64
		interBest := math.Inf(1)
		for c := 0; c < k; c++ {
			var sum float64
			var cnt int
			for j := range rows {
				if j == i || assign[j] != c {
					continue
				}
				sum += math.Sqrt(sqDist(rows[i], rows[j]))
				cnt++
			}
			if cnt == 0 {
				continue
			}
			mean := sum / float64(cnt)
			if c == assign[i] {
				intra, intraN = mean, float64(cnt)
			} else if mean < interBest {
				interBest = mean
			}
		}
		if intraN == 0 || math.IsInf(interBest, 1) {
			continue // singleton or single cluster: contributes 0
		}
		den := intra
		if interBest > den {
			den = interBest
		}
		if den > 0 {
			total += (interBest - intra) / den
		}
	}
	return total / float64(n)
}

// Purity scores a clustering against ground-truth labels: the fraction of
// items belonging to their cluster's majority label.
func Purity(assign []int, labels []string, k int) float64 {
	if len(assign) == 0 || len(assign) != len(labels) {
		return 0
	}
	correct := 0
	for c := 0; c < k; c++ {
		counts := make(map[string]int)
		for i, a := range assign {
			if a == c {
				counts[labels[i]]++
			}
		}
		best := 0
		for _, n := range counts {
			if n > best {
				best = n
			}
		}
		correct += best
	}
	return float64(correct) / float64(len(assign))
}
