package retrieval

import (
	"math"
	"testing"

	"github.com/videodb/hmmm/internal/xrand"
)

// TestRoundUp16NeverRoundsDown pins the table encoding the bound's
// safety rests on: every decoded value is at least the float64 it
// encodes, within the format's 2⁻⁸ relative step, and zero and +∞ stay
// exact.
func TestRoundUp16NeverRoundsDown(t *testing.T) {
	xs := []float64{0, math.SmallestNonzeroFloat64, 1e-300, 1e-45, 1e-20, 1 / 3.0, 1, 1 + 1e-12,
		math.MaxFloat32, math.Nextafter(math.MaxFloat32, math.Inf(1)), math.MaxFloat64, math.Inf(1)}
	rng := xrand.New(1)
	for i := 0; i < 10000; i++ {
		xs = append(xs, math.Ldexp(rng.Float64(), rng.Intn(80)-60))
	}
	for _, x := range xs {
		got := widen(roundUp16(x))
		if got < x {
			t.Fatalf("widen(roundUp16(%g)) = %g, below the input", x, got)
		}
		if x >= 1e-37 && x <= 1e38 && got > x*(1+1.0/128) {
			t.Fatalf("widen(roundUp16(%g)) = %g, more than 2⁻⁷ above", x, got)
		}
	}
	if widen(roundUp16(0)) != 0 || !math.IsInf(widen(roundUp16(math.Inf(1))), 1) {
		t.Fatal("zero or +Inf not preserved")
	}
}
