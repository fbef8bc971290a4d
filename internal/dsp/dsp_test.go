package dsp

import (
	"errors"
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"github.com/videodb/hmmm/internal/xrand"
)

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	err := FFT(make([]complex128, 3))
	if !errors.Is(err, ErrNotPowerOfTwo) {
		t.Fatalf("err = %v, want ErrNotPowerOfTwo", err)
	}
}

func TestFFTEmptyOK(t *testing.T) {
	if err := FFT(nil); err != nil {
		t.Fatal(err)
	}
}

func TestFFTImpulse(t *testing.T) {
	// DFT of a unit impulse is flat: all bins equal 1.
	x := make([]complex128, 8)
	x[0] = 1
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	// A pure cosine at bin k concentrates energy in bins k and n-k.
	const n, k = 64, 5
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Cos(2*math.Pi*float64(k)*float64(i)/n), 0)
	}
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		mag := cmplx.Abs(v)
		if i == k || i == n-k {
			if math.Abs(mag-n/2) > 1e-9 {
				t.Errorf("bin %d magnitude = %v, want %v", i, mag, float64(n)/2)
			}
		} else if mag > 1e-9 {
			t.Errorf("bin %d magnitude = %v, want ~0", i, mag)
		}
	}
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	r := xrand.New(3)
	const n = 32
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.Norm(0, 1), r.Norm(0, 1))
	}
	want := naiveDFT(x)
	got := append([]complex128(nil), x...)
	if err := FFT(got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if cmplx.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("bin %d: FFT=%v naive=%v", i, got[i], want[i])
		}
	}
}

func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			s += x[t] * cmplx.Exp(complex(0, ang))
		}
		out[k] = s
	}
	return out
}

func TestParsevalProperty(t *testing.T) {
	// Property: FFT preserves energy (Parseval): sum|x|^2 = sum|X|^2 / n.
	check := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 << (2 + r.Intn(7))
		x := make([]complex128, n)
		var timeEnergy float64
		for i := range x {
			x[i] = complex(r.Norm(0, 1), 0)
			timeEnergy += real(x[i]) * real(x[i])
		}
		if err := FFT(x); err != nil {
			return false
		}
		var freqEnergy float64
		for _, v := range x {
			freqEnergy += real(v)*real(v) + imag(v)*imag(v)
		}
		freqEnergy /= float64(n)
		return math.Abs(timeEnergy-freqEnergy) < 1e-6*(1+timeEnergy)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestSpectrumLengthAndPeak(t *testing.T) {
	const sr = 8000
	frame := make([]float64, 512)
	for i := range frame {
		frame[i] = math.Sin(2 * math.Pi * 1000 * float64(i) / sr)
	}
	spec := Spectrum(frame)
	if len(spec) != 257 {
		t.Fatalf("spectrum length = %d, want 257", len(spec))
	}
	// Peak bin should be near 1000 Hz: bin = 1000/(8000/512) = 64.
	peak := 0
	for i, v := range spec {
		if v > spec[peak] {
			peak = i
		}
	}
	if peak < 62 || peak > 66 {
		t.Errorf("spectral peak at bin %d, want ~64", peak)
	}
}

func TestSpectrumEmpty(t *testing.T) {
	if Spectrum(nil) != nil {
		t.Error("Spectrum(nil) should be nil")
	}
}

func TestSpectrumZeroPads(t *testing.T) {
	// 300-sample frame pads to 512 -> 257 bins.
	if got := len(Spectrum(make([]float64, 300))); got != 257 {
		t.Errorf("padded spectrum length = %d, want 257", got)
	}
}

func TestRMS(t *testing.T) {
	if RMS(nil) != 0 {
		t.Error("RMS(nil) != 0")
	}
	if got := RMS([]float64{3, -3, 3, -3}); math.Abs(got-3) > 1e-12 {
		t.Errorf("RMS = %v, want 3", got)
	}
}

func TestSubBandRMS(t *testing.T) {
	const sr = 8000
	frame := make([]float64, 1024)
	for i := range frame {
		frame[i] = math.Sin(2 * math.Pi * 500 * float64(i) / sr)
	}
	spec := Spectrum(frame)
	low := SubBandRMS(spec, sr, Band{0, 1000})
	high := SubBandRMS(spec, sr, Band{2000, 4000})
	if low <= high*10 {
		t.Errorf("500Hz tone: low band RMS %v should dominate high band %v", low, high)
	}
}

func TestSubBandRMSEdgeCases(t *testing.T) {
	if SubBandRMS(nil, 8000, Band{0, 100}) != 0 {
		t.Error("empty spectrum should give 0")
	}
	if SubBandRMS([]float64{1, 2, 3}, 0, Band{0, 100}) != 0 {
		t.Error("zero sample rate should give 0")
	}
	spec := Spectrum(make([]float64, 256))
	if SubBandRMS(spec, 8000, Band{5000, 6000}) != 0 {
		t.Error("band beyond Nyquist should give 0")
	}
}

func TestSpectralFlux(t *testing.T) {
	if SpectralFlux([]float64{1, 1}, []float64{1, 1}) != 0 {
		t.Error("identical spectra should have zero flux")
	}
	if got := SpectralFlux([]float64{0, 0}, []float64{3, 4}); math.Abs(got-5) > 1e-12 {
		t.Errorf("flux = %v, want 5", got)
	}
	// Different lengths compare over common prefix.
	if got := SpectralFlux([]float64{0}, []float64{3, 100}); got != 3 {
		t.Errorf("prefix flux = %v, want 3", got)
	}
}

func TestFrames(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	f := Frames(s, 2, 2)
	if len(f) != 2 || f[0][0] != 1 || f[1][1] != 4 {
		t.Errorf("Frames = %v", f)
	}
	if got := Frames(s, 2, 1); len(got) != 4 {
		t.Errorf("hop-1 frames = %d, want 4", len(got))
	}
	if Frames([]float64{1}, 2, 1) != nil {
		t.Error("too-short signal should produce no frames")
	}
}

func TestFramesPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Frames with hop=0 did not panic")
		}
	}()
	Frames([]float64{1}, 1, 0)
}

func TestSeriesStats(t *testing.T) {
	st := SeriesStats([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if st.Mean != 5 {
		t.Errorf("mean = %v, want 5", st.Mean)
	}
	if math.Abs(st.Std-2) > 1e-12 {
		t.Errorf("std = %v, want 2", st.Std)
	}
	if st.Min != 2 || st.Max != 9 {
		t.Errorf("min/max = %v/%v", st.Min, st.Max)
	}
	if (SeriesStats(nil) != Stats{}) {
		t.Error("empty stats should be zero")
	}
}

func TestDiff(t *testing.T) {
	got := Diff([]float64{1, 4, 2})
	if len(got) != 2 || got[0] != 3 || got[1] != -2 {
		t.Errorf("Diff = %v", got)
	}
	if Diff([]float64{1}) != nil {
		t.Error("Diff of singleton should be nil")
	}
}

func TestLowRate(t *testing.T) {
	// mean = 5; threshold 0.5 -> limit 2.5; one of four below.
	got := LowRate([]float64{1, 5, 6, 8}, 0.5)
	if got != 0.25 {
		t.Errorf("LowRate = %v, want 0.25", got)
	}
	if LowRate(nil, 0.5) != 0 {
		t.Error("LowRate(nil) != 0")
	}
}

func TestDynamicRange(t *testing.T) {
	if got := DynamicRange([]float64{1, 2, 4}); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("DynamicRange = %v, want 0.75", got)
	}
	if DynamicRange([]float64{-1, -2}) != 0 {
		t.Error("non-positive max should give 0")
	}
}

func BenchmarkFFT1024(b *testing.B) {
	r := xrand.New(1)
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(r.Norm(0, 1), 0)
	}
	buf := make([]complex128, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		if err := FFT(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpectrum512(b *testing.B) {
	frame := make([]float64, 512)
	for i := range frame {
		frame[i] = math.Sin(float64(i) / 3)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Spectrum(frame)
	}
}
