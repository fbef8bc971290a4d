// Package mining implements the semantic event detection component of the
// paper's framework (Figure 1: "data mining techniques are deployed to
// detect the semantic events"; the paper delegates to its refs [6][7],
// which use decision-tree classifiers over joint multimodal features).
//
// The classifier is a C4.5-style decision tree: binary splits on continuous
// features chosen by gain ratio, with minimum-leaf-size and maximum-depth
// stopping and pessimistic error pruning. A small package, but a real one:
// it trains on labeled shot feature vectors and annotates unlabeled shots,
// closing the pipeline from raw media to HMMM states.
package mining

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Errors returned by Train.
var (
	ErrNoSamples = errors.New("mining: no training samples")
	ErrRagged    = errors.New("mining: inconsistent feature vector lengths")
)

// Sample is one labeled training instance.
type Sample struct {
	Features []float64
	Label    int
}

// Config tunes tree induction. The zero value selects the defaults noted
// per field.
type Config struct {
	MaxDepth    int     // maximum tree depth; 0 means DefaultMaxDepth
	MinLeaf     int     // minimum samples per leaf; 0 means DefaultMinLeaf
	PruneFactor float64 // pessimistic pruning z-factor; 0 means DefaultPruneFactor, negative disables pruning
}

// Default induction parameters.
const (
	DefaultMaxDepth    = 12
	DefaultMinLeaf     = 3
	DefaultPruneFactor = 0.69 // z for ~75% one-sided confidence, C4.5's default spirit
)

func (c Config) withDefaults() Config {
	if c.MaxDepth <= 0 {
		c.MaxDepth = DefaultMaxDepth
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = DefaultMinLeaf
	}
	if c.PruneFactor == 0 {
		c.PruneFactor = DefaultPruneFactor
	}
	return c
}

// node is one tree node. Leaves have feature == -1.
type node struct {
	feature   int     // split feature index, -1 for leaf
	threshold float64 // split threshold: left if value <= threshold
	left      *node
	right     *node
	label     int       // majority label (used at leaves and for pruning)
	counts    []int     // class histogram of training samples reaching the node
	total     int       // number of training samples reaching the node
	probs     []float64 // class probability estimates at the node
}

// Tree is a trained decision tree classifier.
type Tree struct {
	root     *node
	features int
	classes  int
}

// Train induces a decision tree from the samples. Labels must be
// non-negative and dense-ish (the tree allocates histograms of size
// max(label)+1).
func Train(samples []Sample, cfg Config) (*Tree, error) {
	if len(samples) == 0 {
		return nil, ErrNoSamples
	}
	cfg = cfg.withDefaults()
	nf := len(samples[0].Features)
	classes := 0
	for i, s := range samples {
		if len(s.Features) != nf {
			return nil, fmt.Errorf("%w: sample %d has %d features, want %d", ErrRagged, i, len(s.Features), nf)
		}
		if s.Label < 0 {
			return nil, fmt.Errorf("mining: sample %d has negative label %d", i, s.Label)
		}
		if s.Label+1 > classes {
			classes = s.Label + 1
		}
	}
	t := &Tree{features: nf, classes: classes}
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	t.root = t.grow(samples, idx, cfg, 0)
	if cfg.PruneFactor > 0 {
		t.prune(t.root, cfg.PruneFactor)
	}
	return t, nil
}

// grow recursively builds the subtree over the sample subset idx.
func (t *Tree) grow(samples []Sample, idx []int, cfg Config, depth int) *node {
	n := t.newNode(samples, idx)
	if depth >= cfg.MaxDepth || len(idx) < 2*cfg.MinLeaf || n.pure() {
		n.feature = -1
		return n
	}
	feature, threshold, gain := t.bestSplit(samples, idx, cfg)
	if feature < 0 || gain <= 0 {
		n.feature = -1
		return n
	}
	var left, right []int
	for _, i := range idx {
		if samples[i].Features[feature] <= threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < cfg.MinLeaf || len(right) < cfg.MinLeaf {
		n.feature = -1
		return n
	}
	n.feature = feature
	n.threshold = threshold
	n.left = t.grow(samples, left, cfg, depth+1)
	n.right = t.grow(samples, right, cfg, depth+1)
	return n
}

func (t *Tree) newNode(samples []Sample, idx []int) *node {
	n := &node{feature: -1, counts: make([]int, t.classes), total: len(idx)}
	for _, i := range idx {
		n.counts[samples[i].Label]++
	}
	best := 0
	for c, cnt := range n.counts {
		if cnt > n.counts[best] {
			best = c
		}
	}
	n.label = best
	n.probs = make([]float64, t.classes)
	if n.total > 0 {
		for c, cnt := range n.counts {
			n.probs[c] = float64(cnt) / float64(n.total)
		}
	}
	return n
}

func (n *node) pure() bool {
	return n.counts[n.label] == n.total
}

// bestSplit scans every feature for the threshold with the highest gain
// ratio. Candidate thresholds are midpoints between consecutive distinct
// sorted values whose labels differ (the C4.5 optimization).
func (t *Tree) bestSplit(samples []Sample, idx []int, cfg Config) (feature int, threshold, bestGR float64) {
	feature = -1
	baseEntropy := entropyOf(samples, idx, t.classes)
	type fv struct {
		v     float64
		label int
	}
	vals := make([]fv, len(idx))
	for f := 0; f < t.features; f++ {
		for k, i := range idx {
			vals[k] = fv{samples[i].Features[f], samples[i].Label}
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a].v < vals[b].v })

		// Incremental left/right class histograms.
		leftCounts := make([]int, t.classes)
		rightCounts := make([]int, t.classes)
		for _, x := range vals {
			rightCounts[x.label]++
		}
		nLeft := 0
		total := len(vals)
		for k := 0; k < total-1; k++ {
			leftCounts[vals[k].label]++
			rightCounts[vals[k].label]--
			nLeft++
			if vals[k].v == vals[k+1].v {
				continue
			}
			if nLeft < cfg.MinLeaf || total-nLeft < cfg.MinLeaf {
				continue
			}
			pL := float64(nLeft) / float64(total)
			cond := float64(pL*entropyCounts(leftCounts, nLeft)) + float64((1-pL)*entropyCounts(rightCounts, total-nLeft))
			gain := baseEntropy - cond
			if gain <= 1e-12 {
				continue
			}
			splitInfo := float64(-pL*math.Log2(pL)) - float64((1-pL)*math.Log2(1-pL))
			if splitInfo < 1e-9 {
				continue
			}
			gr := gain / splitInfo
			if gr > bestGR {
				bestGR = gr
				feature = f
				threshold = (vals[k].v + vals[k+1].v) / 2
			}
		}
	}
	return feature, threshold, bestGR
}

func entropyOf(samples []Sample, idx []int, classes int) float64 {
	counts := make([]int, classes)
	for _, i := range idx {
		counts[samples[i].Label]++
	}
	return entropyCounts(counts, len(idx))
}

func entropyCounts(counts []int, total int) float64 {
	if total == 0 {
		return 0
	}
	var h float64
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= float64(p * math.Log2(p))
	}
	return h
}

// prune performs bottom-up pessimistic pruning: a subtree is replaced by a
// leaf when the leaf's pessimistic error estimate does not exceed the
// subtree's.
func (t *Tree) prune(n *node, z float64) float64 {
	if n.feature == -1 {
		return pessimisticErrors(n, z)
	}
	subtreeErr := t.prune(n.left, z) + t.prune(n.right, z)
	leafErr := pessimisticErrors(n, z)
	if leafErr <= subtreeErr {
		n.feature = -1
		n.left, n.right = nil, nil
		return leafErr
	}
	return subtreeErr
}

// pessimisticErrors estimates the error count of treating n as a leaf,
// inflated by z standard deviations of the binomial error.
func pessimisticErrors(n *node, z float64) float64 {
	if n.total == 0 {
		return 0
	}
	errs := float64(n.total - n.counts[n.label])
	p := errs / float64(n.total)
	return errs + float64(z*math.Sqrt(float64(float64(n.total)*p*(1-p))+0.25))
}

// Predict returns the predicted label for the feature vector.
func (t *Tree) Predict(features []float64) int {
	label, _ := t.PredictProb(features)
	return label
}

// PredictProb returns the predicted label and the class probability
// distribution at the reached leaf. Feature vectors shorter than the
// training width are rejected by panic, mirroring slice indexing.
func (t *Tree) PredictProb(features []float64) (int, []float64) {
	n := t.root
	for n.feature != -1 {
		if features[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.label, append([]float64(nil), n.probs...)
}

// NumFeatures returns the feature-vector width the tree was trained on.
func (t *Tree) NumFeatures() int { return t.features }
