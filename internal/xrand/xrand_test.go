package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("generators with equal seeds diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("generators with different seeds produced %d equal outputs", same)
	}
}

func TestKnownSequence(t *testing.T) {
	// Pin the splitmix64 output so an accidental algorithm change (which
	// would silently regenerate every dataset differently) fails loudly.
	r := New(0)
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Fatalf("splitmix64(seed=0) output %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 returned %v outside [0,1)", f)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(9)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) returned %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) covered %d values in 1000 draws, want 10", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Norm(3, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-3) > 0.05 {
		t.Errorf("sample mean = %v, want ~3", mean)
	}
	if math.Abs(std-2) > 0.05 {
		t.Errorf("sample std = %v, want ~2", std)
	}
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64) bool {
		r := New(seed)
		n := 1 + r.Intn(50)
		p := r.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestChoiceRespectsWeights(t *testing.T) {
	r := New(13)
	weights := []float64{0, 1, 3}
	counts := make([]int, 3)
	const n = 30000
	for i := 0; i < n; i++ {
		counts[r.Choice(weights)]++
	}
	if counts[0] != 0 {
		t.Errorf("zero-weight index chosen %d times", counts[0])
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if ratio < 2.7 || ratio > 3.3 {
		t.Errorf("weight-3/weight-1 pick ratio = %v, want ~3", ratio)
	}
}

func TestChoiceAllZeroFallsBackToUniform(t *testing.T) {
	r := New(17)
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		counts[r.Choice([]float64{0, 0, 0, 0})]++
	}
	for i, c := range counts {
		if c < 800 || c > 1200 {
			t.Errorf("uniform fallback index %d picked %d/4000 times", i, c)
		}
	}
}

func TestForkStreamsAreIndependent(t *testing.T) {
	parent := New(99)
	a := parent.Fork(1)
	b := parent.Fork(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("forked streams overlapped %d times", same)
	}
}

func TestRange(t *testing.T) {
	r := New(21)
	for i := 0; i < 1000; i++ {
		v := r.Range(-2, 5)
		if v < -2 || v >= 5 {
			t.Fatalf("Range(-2,5) returned %v", v)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func TestBool(t *testing.T) {
	r := New(13)
	const n = 20000
	trues := 0
	for i := 0; i < n; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
		if r.Bool(0.3) {
			trues++
		}
	}
	if f := float64(trues) / n; math.Abs(f-0.3) > 0.02 {
		t.Errorf("Bool(0.3) true rate = %v, want about 0.3", f)
	}
	a, b := New(5), New(5)
	for i := 0; i < 100; i++ {
		if a.Bool(0.5) != b.Bool(0.5) {
			t.Fatalf("equal seeds diverged at draw %d", i)
		}
	}
}
