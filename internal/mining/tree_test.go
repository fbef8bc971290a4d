package mining

import (
	"errors"
	"testing"
	"testing/quick"

	"github.com/videodb/hmmm/internal/xrand"
)

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, Config{}); !errors.Is(err, ErrNoSamples) {
		t.Errorf("Train(nil) err = %v, want ErrNoSamples", err)
	}
	ragged := []Sample{{Features: []float64{1}, Label: 0}, {Features: []float64{1, 2}, Label: 1}}
	if _, err := Train(ragged, Config{}); !errors.Is(err, ErrRagged) {
		t.Errorf("ragged err = %v, want ErrRagged", err)
	}
	neg := []Sample{{Features: []float64{1}, Label: -1}}
	if _, err := Train(neg, Config{}); err == nil {
		t.Error("Train accepted negative label")
	}
}

func TestTrainTriviallySeparable(t *testing.T) {
	var samples []Sample
	for i := 0; i < 20; i++ {
		samples = append(samples,
			Sample{Features: []float64{float64(i), 0}, Label: 0},
			Sample{Features: []float64{float64(i) + 100, 0}, Label: 1},
		)
	}
	tree, err := Train(samples, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Predict([]float64{5, 0}); got != 0 {
		t.Errorf("Predict(5) = %d, want 0", got)
	}
	if got := tree.Predict([]float64{105, 0}); got != 1 {
		t.Errorf("Predict(105) = %d, want 1", got)
	}
	if depthOf(tree.root) != 1 {
		t.Errorf("trivially separable data grew depth %d, want 1", depthOf(tree.root))
	}
}

func TestTrainXOR(t *testing.T) {
	// XOR needs two levels — checks the recursion actually composes splits.
	var samples []Sample
	rng := xrand.New(4)
	for i := 0; i < 200; i++ {
		x, y := rng.Float64(), rng.Float64()
		label := 0
		if (x > 0.5) != (y > 0.5) {
			label = 1
		}
		samples = append(samples, Sample{Features: []float64{x, y}, Label: label})
	}
	tree, err := Train(samples, Config{})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for _, s := range samples {
		if tree.Predict(s.Features) == s.Label {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(samples)); acc < 0.95 {
		t.Errorf("XOR training accuracy = %v, want >= 0.95", acc)
	}
}

func TestPredictProb(t *testing.T) {
	samples := []Sample{
		{Features: []float64{0}, Label: 0},
		{Features: []float64{0.1}, Label: 0},
		{Features: []float64{0.2}, Label: 0},
		{Features: []float64{1}, Label: 1},
		{Features: []float64{1.1}, Label: 1},
		{Features: []float64{1.2}, Label: 1},
	}
	tree, err := Train(samples, Config{MinLeaf: 1, PruneFactor: -1})
	if err != nil {
		t.Fatal(err)
	}
	label, probs := tree.PredictProb([]float64{0})
	if label != 0 {
		t.Errorf("label = %d, want 0", label)
	}
	if len(probs) != 2 || probs[0] != 1 {
		t.Errorf("probs = %v, want [1 0]", probs)
	}
}

func TestSingleClassDegenerates(t *testing.T) {
	samples := []Sample{
		{Features: []float64{1}, Label: 3},
		{Features: []float64{2}, Label: 3},
	}
	tree, err := Train(samples, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Predict([]float64{99}) != 3 {
		t.Error("single-class tree should always predict that class")
	}
	if leavesOf(tree.root) != 1 {
		t.Errorf("single-class tree has %d leaves, want 1", leavesOf(tree.root))
	}
}

func TestMaxDepthRespected(t *testing.T) {
	rng := xrand.New(8)
	var samples []Sample
	for i := 0; i < 500; i++ {
		f := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		samples = append(samples, Sample{Features: f, Label: rng.Intn(4)})
	}
	tree, err := Train(samples, Config{MaxDepth: 3, PruneFactor: -1, MinLeaf: 1})
	if err != nil {
		t.Fatal(err)
	}
	if depthOf(tree.root) > 3 {
		t.Errorf("depth = %d exceeds MaxDepth 3", depthOf(tree.root))
	}
}

func TestPruningShrinksNoisyTree(t *testing.T) {
	rng := xrand.New(15)
	gen := func() []Sample {
		var samples []Sample
		for i := 0; i < 300; i++ {
			x := rng.Float64()
			label := 0
			if x > 0.5 {
				label = 1
			}
			if rng.Bool(0.15) { // label noise
				label = 1 - label
			}
			samples = append(samples, Sample{Features: []float64{x, rng.Float64()}, Label: label})
		}
		return samples
	}
	samples := gen()
	unpruned, err := Train(samples, Config{PruneFactor: -1, MinLeaf: 1})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := Train(samples, Config{MinLeaf: 1})
	if err != nil {
		t.Fatal(err)
	}
	if leavesOf(pruned.root) >= leavesOf(unpruned.root) {
		t.Errorf("pruned leaves %d, unpruned %d: pruning had no effect", leavesOf(pruned.root), leavesOf(unpruned.root))
	}
}

func TestTreeMetadata(t *testing.T) {
	samples := []Sample{{Features: []float64{1, 2, 3}, Label: 2}}
	tree, err := Train(samples, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumFeatures() != 3 || tree.classes != 3 {
		t.Errorf("features=%d classes=%d", tree.NumFeatures(), tree.classes)
	}
}

func TestPredictTotalProperty(t *testing.T) {
	// Property: for any training set, Predict returns a label seen in
	// training and PredictProb sums to ~1.
	check := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 10 + rng.Intn(50)
		classes := 2 + rng.Intn(3)
		seen := make(map[int]bool)
		samples := make([]Sample, n)
		for i := range samples {
			label := rng.Intn(classes)
			seen[label] = true
			samples[i] = Sample{
				Features: []float64{rng.Float64(), rng.Float64()},
				Label:    label,
			}
		}
		tree, err := Train(samples, Config{})
		if err != nil {
			return false
		}
		label, probs := tree.PredictProb([]float64{rng.Float64(), rng.Float64()})
		if !seen[label] {
			return false
		}
		var sum float64
		for _, p := range probs {
			if p < 0 {
				return false
			}
			sum += p
		}
		return sum > 0.999 && sum < 1.001
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestConfusionMatrix(t *testing.T) {
	cm := NewConfusionMatrix(3)
	cm.Observe(0, 0)
	cm.Observe(0, 1)
	cm.Observe(1, 1)
	cm.Observe(2, 2)
	if acc := cm.Accuracy(); acc != 0.75 {
		t.Errorf("accuracy = %v, want 0.75", acc)
	}
	p, r := cm.PrecisionRecall(1)
	if p != 0.5 || r != 1 {
		t.Errorf("class 1 precision=%v recall=%v, want 0.5 1", p, r)
	}
	if NewConfusionMatrix(2).Accuracy() != 0 {
		t.Error("empty matrix accuracy should be 0")
	}
}

func TestCrossValidate(t *testing.T) {
	rng := xrand.New(23)
	var samples []Sample
	for i := 0; i < 200; i++ {
		x := rng.Float64()
		label := 0
		if x > 0.5 {
			label = 1
		}
		samples = append(samples, Sample{Features: []float64{x}, Label: label})
	}
	cm, err := CrossValidate(samples, Config{}, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if acc := cm.Accuracy(); acc < 0.95 {
		t.Errorf("CV accuracy on separable data = %v, want >= 0.95", acc)
	}
}

func TestCrossValidateErrors(t *testing.T) {
	s := []Sample{{Features: []float64{1}, Label: 0}}
	if _, err := CrossValidate(s, Config{}, 1, 1); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := CrossValidate(s, Config{}, 5, 1); err == nil {
		t.Error("too few samples accepted")
	}
}

func TestCrossValidateDeterministic(t *testing.T) {
	rng := xrand.New(31)
	var samples []Sample
	for i := 0; i < 60; i++ {
		samples = append(samples, Sample{Features: []float64{rng.Float64()}, Label: rng.Intn(2)})
	}
	a, err := CrossValidate(samples, Config{}, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CrossValidate(samples, Config{}, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Accuracy() != b.Accuracy() {
		t.Error("same-seed cross validation differs")
	}
}

func BenchmarkTrain(b *testing.B) {
	rng := xrand.New(1)
	var samples []Sample
	for i := 0; i < 500; i++ {
		f := make([]float64, 20)
		for j := range f {
			f[j] = rng.Float64()
		}
		samples = append(samples, Sample{Features: f, Label: rng.Intn(9)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(samples, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredict(b *testing.B) {
	rng := xrand.New(1)
	var samples []Sample
	for i := 0; i < 500; i++ {
		f := make([]float64, 20)
		for j := range f {
			f[j] = rng.Float64()
		}
		samples = append(samples, Sample{Features: f, Label: rng.Intn(9)})
	}
	tree, err := Train(samples, Config{})
	if err != nil {
		b.Fatal(err)
	}
	probe := samples[0].Features
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tree.Predict(probe)
	}
}

// depthOf is the depth of the subtree at n (a lone leaf has depth 0).
func depthOf(n *node) int {
	if n == nil || n.feature == -1 {
		return 0
	}
	return 1 + max(depthOf(n.left), depthOf(n.right))
}

func leavesOf(n *node) int {
	if n == nil {
		return 0
	}
	if n.feature == -1 {
		return 1
	}
	return leavesOf(n.left) + leavesOf(n.right)
}
