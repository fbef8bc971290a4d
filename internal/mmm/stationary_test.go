package mmm

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/videodb/hmmm/internal/xrand"
)

func TestStationaryTwoStateChain(t *testing.T) {
	// P = [[0.9, 0.1], [0, 1]] drains into state 1. With damping d the
	// fixed point has π0 = (1-d)·0.9·π0 + d/2, so π0 = (d/2)/(1-0.9(1-d)):
	// 0.025/0.145 = 5/29 at the default d = 0.05.
	a := upper([][]float64{{0.9, 0.1}, {0, 1}})
	pi, err := Stationary(a, StationaryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pi[0]-5.0/29) > 1e-8 || math.Abs(pi[1]-24.0/29) > 1e-8 {
		t.Errorf("pi = %v, want [5/29 24/29]", pi)
	}
	// Undamped, the chain ends in its absorbing state.
	pi, err = Stationary(a, StationaryOptions{Damping: -1})
	if err != nil {
		t.Fatal(err)
	}
	if pi[0] > 1e-8 || math.Abs(pi[1]-1) > 1e-8 {
		t.Errorf("undamped pi = %v, want [0 1]", pi)
	}
}

func TestStationaryDampingHandlesAbsorbing(t *testing.T) {
	// Identity chain is reducible; undamped iteration stays at the start
	// vector, damped converges to uniform.
	a := upper([][]float64{{1, 0}, {0, 1}})
	pi, err := Stationary(a, StationaryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pi[0]-0.5) > 1e-6 {
		t.Errorf("damped absorbing chain pi = %v, want uniform", pi)
	}
}

func TestStationaryErrors(t *testing.T) {
	if _, err := Stationary(new(A1), StationaryOptions{}); !errors.Is(err, ErrNoStates) {
		t.Errorf("empty err = %v", err)
	}
	bad := upper([][]float64{{0.5, 0.2}, {0, 1}})
	if _, err := Stationary(bad, StationaryOptions{}); err == nil {
		t.Error("non-stochastic accepted")
	}
}

func TestStationaryNoConvergence(t *testing.T) {
	// A slowly draining chain (second eigenvalue 0.999) cannot reach a
	// 1e-15 tolerance in three undamped iterations.
	slow := upper([][]float64{{0.999, 0.001}, {0, 1}})
	_, err := Stationary(slow, StationaryOptions{Damping: -1, MaxIter: 3, Tolerance: 1e-15})
	if !errors.Is(err, ErrNoConvergence) {
		t.Errorf("err = %v, want ErrNoConvergence", err)
	}
}

func TestStationaryIsDistributionProperty(t *testing.T) {
	// Property: for any random stochastic matrix the result is a
	// distribution and (approximately) a fixed point of the damped chain.
	check := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(10)
		a := randomStochastic(rng, n, 0.01)
		pi, err := Stationary(a, StationaryOptions{})
		if err != nil {
			return false
		}
		var sum float64
		for _, p := range pi {
			if p < 0 {
				return false
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-8 {
			return false
		}
		// Fixed point check: pi ≈ (1-d) pi A + d u.
		next, err := leftMul(pi, a)
		if err != nil {
			return false
		}
		for j := range next {
			mixed := (1-DefaultDamping)*next[j] + DefaultDamping/float64(n)
			if math.Abs(mixed-pi[j]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func leftMul(pi []float64, a *A1) ([]float64, error) {
	n := a.Rows()
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			out[j] += pi[i] * a.At(i, j)
		}
	}
	return out, nil
}

func BenchmarkStationary200(b *testing.B) {
	rng := xrand.New(1)
	const n = 200
	a := randomStochastic(rng, n, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Stationary(a, StationaryOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// upper returns the block of a square matrix given as full rows, zeros
// left of the diagonal included, every row stored.
func upper(rows [][]float64) *A1 {
	stored := make([][]float64, len(rows))
	for i, r := range rows {
		stored[i] = r[i:]
	}
	a, err := FromRows(stored)
	if err != nil {
		panic(err)
	}
	return a
}

// randomStochastic returns an n×n block of random upper-triangular rows,
// each entry drawn from [floor, 1+floor) and every row normalized.
func randomStochastic(rng *xrand.RNG, n int, floor float64) *A1 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, n)
		var sum float64
		for j := i; j < n; j++ {
			rows[i][j] = rng.Float64() + floor
			sum += rows[i][j]
		}
		for j := i; j < n; j++ {
			rows[i][j] /= sum
		}
	}
	return upper(rows)
}
