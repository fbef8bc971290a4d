package retrieval

import (
	"math"
	"testing"
)

// TestCosineUnfused documents one site make fma-check guards. A
// compiler may fuse dot += a[i]*b[i] into one rounding (math.FMA, what
// arm64's FMADDD computes); for these vectors that gives a different
// dot product than rounding the product first, as amd64 always does.
// The float64 conversion in cosine forbids the fusion, so every GOARCH
// gets the amd64 value.
func TestCosineUnfused(t *testing.T) {
	x := 1 + 0x1p-30
	xx := float64(x * x) // 1 + 2⁻²⁹: the 2⁻⁶⁰ term is rounded away
	unfused := xx - 1
	fused := math.FMA(x, x, -1) // keeps the 2⁻⁶⁰ term
	if unfused != 0x1p-29 || fused != 0x1p-29+0x1p-60 {
		t.Fatalf("unfused %g, fused %g: the example no longer separates the two", unfused, fused)
	}
	na := 1 + xx
	want := unfused / math.Sqrt(na*na)
	if got := cosine([]float64{-1, x}, []float64{1, x}); got != want {
		t.Fatalf("cosine = %b, want the unfused %b (fused would give %b)", got, want, fused/math.Sqrt(na*na))
	}
}
