// Package dsp implements the signal-processing kernel behind the paper's 15
// audio features (Table 1): RMS energy, frequency sub-band energies, and
// spectral flux, built on a from-scratch radix-2 FFT.
//
// The standard library has no FFT, so this package provides an iterative
// in-place Cooley-Tukey implementation sufficient for the frame sizes the
// feature extractor uses (256-2048 samples).
package dsp

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
)

// ErrNotPowerOfTwo is returned by FFT for inputs whose length is not a
// power of two.
var ErrNotPowerOfTwo = errors.New("dsp: FFT length must be a power of two")

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// FFT computes the in-place discrete Fourier transform of x using the
// iterative radix-2 Cooley-Tukey algorithm. len(x) must be a power of two.
func FFT(x []complex128) error {
	n := len(x)
	if n == 0 {
		return nil
	}
	if !IsPowerOfTwo(n) {
		return fmt.Errorf("%w: got %d", ErrNotPowerOfTwo, n)
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Butterfly passes.
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wl := cmplx.Exp(complex(0, ang))
		for start := 0; start < n; start += length {
			w := complex(1, 0)
			half := length / 2
			for k := 0; k < half; k++ {
				u := x[start+k]
				v := cmul(x[start+k+half], w)
				x[start+k] = u + v
				x[start+k+half] = u - v
				w = cmul(w, wl)
			}
		}
	}
	return nil
}

// cmul is a*b as Go's complex multiply computes it, with each product
// rounded on its own: the spec lets a compiler fuse a product into the
// following add or subtract, and the float64 conversions forbid that.
func cmul(a, b complex128) complex128 {
	ar, ai, br, bi := real(a), imag(a), real(b), imag(b)
	return complex(float64(ar*br)-float64(ai*bi), float64(ar*bi)+float64(ai*br))
}

// Spectrum returns the magnitude spectrum of the real signal frame. The
// frame is Hann-windowed and zero-padded to the next power of two; the
// returned slice holds the magnitudes of the non-negative frequency bins
// (length nfft/2 + 1).
func Spectrum(frame []float64) []float64 {
	if len(frame) == 0 {
		return nil
	}
	nfft := 1
	for nfft < len(frame) {
		nfft <<= 1
	}
	buf := make([]complex128, nfft)
	for i, v := range frame {
		buf[i] = complex(v*hann(i, len(frame)), 0)
	}
	// Length is a power of two by construction, so FFT cannot fail.
	if err := FFT(buf); err != nil {
		panic("dsp: internal FFT length error: " + err.Error())
	}
	mags := make([]float64, nfft/2+1)
	for i := range mags {
		mags[i] = cmplx.Abs(buf[i])
	}
	return mags
}

func hann(i, n int) float64 {
	if n <= 1 {
		return 1
	}
	return 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n-1)))
}

// RMS returns the root-mean-square amplitude of the samples, 0 for an
// empty slice.
func RMS(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += float64(v * v)
	}
	return math.Sqrt(sum / float64(len(samples)))
}

// Band is a frequency band in Hz.
type Band struct {
	LowHz, HighHz float64
}

// SubBandRMS returns the RMS magnitude of the spectrum bins falling inside
// the band [LowHz, HighHz) for a spectrum computed from a frame sampled at
// sampleRate with the given FFT length implied by len(spectrum). A band
// containing no bins yields 0.
func SubBandRMS(spectrum []float64, sampleRate int, b Band) float64 {
	if len(spectrum) == 0 || sampleRate <= 0 {
		return 0
	}
	nfft := (len(spectrum) - 1) * 2
	if nfft <= 0 {
		return 0
	}
	binHz := float64(sampleRate) / float64(nfft)
	var sum float64
	var n int
	for i, mag := range spectrum {
		f := float64(i) * binHz
		if f >= b.LowHz && f < b.HighHz {
			sum += float64(mag * mag)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(n))
}

// SpectralFlux returns the Euclidean distance between two successive
// magnitude spectra: the Table-1 "Spectrum Flux" primitive. Spectra of
// different lengths are compared over their common prefix.
func SpectralFlux(prev, cur []float64) float64 {
	n := len(prev)
	if len(cur) < n {
		n = len(cur)
	}
	var sum float64
	for i := 0; i < n; i++ {
		d := cur[i] - prev[i]
		sum += float64(d * d)
	}
	return math.Sqrt(sum)
}

// Frames cuts the signal into consecutive frames of the given size with the
// given hop (stride). A trailing partial frame is dropped. It panics if
// size or hop is not positive.
func Frames(samples []float64, size, hop int) [][]float64 {
	if size <= 0 || hop <= 0 {
		panic(fmt.Sprintf("dsp: Frames(size=%d, hop=%d) with non-positive argument", size, hop))
	}
	var out [][]float64
	for start := 0; start+size <= len(samples); start += hop {
		out = append(out, samples[start:start+size])
	}
	return out
}

// Stats bundles the descriptive statistics the audio feature set derives
// from per-frame measurement series.
type Stats struct {
	Mean, Std, Min, Max float64
}

// SeriesStats computes mean, standard deviation, min and max of the series.
// An empty series yields the zero Stats.
func SeriesStats(series []float64) Stats {
	if len(series) == 0 {
		return Stats{}
	}
	st := Stats{Min: series[0], Max: series[0]}
	for _, v := range series {
		st.Mean += v
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
	}
	st.Mean /= float64(len(series))
	var ss float64
	for _, v := range series {
		d := v - st.Mean
		ss += float64(d * d)
	}
	st.Std = math.Sqrt(ss / float64(len(series)))
	return st
}

// Diff returns the first-difference series d[i] = s[i+1] - s[i] (length
// len(s)-1, or empty for shorter inputs).
func Diff(series []float64) []float64 {
	if len(series) < 2 {
		return nil
	}
	out := make([]float64, len(series)-1)
	for i := range out {
		out[i] = series[i+1] - series[i]
	}
	return out
}

// LowRate returns the fraction of samples whose value is below
// threshold*mean(series): the Table-1 "lowrate" primitive (percentage of
// samples with power less than 0.5 times the mean power uses threshold
// 0.5). An empty series yields 0.
func LowRate(series []float64, threshold float64) float64 {
	if len(series) == 0 {
		return 0
	}
	var mean float64
	for _, v := range series {
		mean += v
	}
	mean /= float64(len(series))
	limit := threshold * mean
	var n int
	for _, v := range series {
		if v < limit {
			n++
		}
	}
	return float64(n) / float64(len(series))
}

// DynamicRange returns (max - min) / max of the series, the Table-1
// "range" primitive, or 0 when max <= 0.
func DynamicRange(series []float64) float64 {
	st := SeriesStats(series)
	if st.Max <= 0 {
		return 0
	}
	return (st.Max - st.Min) / st.Max
}
