// Package features extracts the paper's Table-1 feature set from rendered
// shots: 5 visual features computed over the sampled frames and 15 audio
// features computed over the shot's audio track.
//
// The published table lists 14 legible audio rows plus one garbled by
// typesetting; the restored 15th feature is volume_mean (mean RMS volume
// normalized by the maximum), which the same authors' feature set in
// ref. [6] uses and without which the set would not reach the paper's
// stated K = 20. DESIGN.md records the substitution.
package features

import (
	"fmt"

	"github.com/videodb/hmmm/internal/dsp"
	"github.com/videodb/hmmm/internal/videomodel"
)

// Feature indices into a shot's feature vector, in Table-1 order.
const (
	GrassRatio = iota
	PixelChangePercent
	HistoChange
	BackgroundVar
	BackgroundMean

	VolumeMean
	VolumeStd
	VolumeStdd
	VolumeRange
	EnergyMean
	Sub1Mean
	Sub3Mean
	EnergyLowRate
	Sub1LowRate
	Sub3LowRate
	Sub1Std
	SFMean
	SFStd
	SFStdd
	SFRange

	// K is the total number of features (the paper's K = 20).
	K
)

// Names lists the feature names in index order, matching Table 1.
var Names = [K]string{
	GrassRatio:         "grass_ratio",
	PixelChangePercent: "pixel_change_percent",
	HistoChange:        "histo_change",
	BackgroundVar:      "background_var",
	BackgroundMean:     "background_mean",
	VolumeMean:         "volume_mean",
	VolumeStd:          "volume_std",
	VolumeStdd:         "volume_stdd",
	VolumeRange:        "volume_range",
	EnergyMean:         "energy_mean",
	Sub1Mean:           "sub1_mean",
	Sub3Mean:           "sub3_mean",
	EnergyLowRate:      "energy_lowrate",
	Sub1LowRate:        "sub1_lowrate",
	Sub3LowRate:        "sub3_lowrate",
	Sub1Std:            "sub1_std",
	SFMean:             "sf_mean",
	SFStd:              "sf_std",
	SFStdd:             "sf_stdd",
	SFRange:            "sf_range",
}

// NumVisual and NumAudio partition the K features as Table 1 does.
const (
	NumVisual = 5
	NumAudio  = K - NumVisual
)

// Extraction parameters.
const (
	grassGreenThreshold = 128  // green-plane value above which a pixel counts as grass
	pixelChangeDelta    = 20   // luma delta above which a pixel counts as changed
	histogramBins       = 32   // luma histogram resolution
	audioFrameSize      = 512  // samples per analysis frame (64 ms at 8 kHz)
	audioFrameHop       = 256  // hop between frames (50% overlap)
	sub2LowHz           = 1000 // sub-band boundaries: sub1 = [0,1000), sub3 = [2000,4000)
	sub3LowHz           = 2000
	sub3HighHz          = 4000
)

// Extract computes the K-dimensional feature vector of a shot from its
// frames and audio. It returns an error if the shot has fewer than two
// frames or no audio, since the change-based features would be undefined.
func Extract(s *videomodel.Shot) ([]float64, error) {
	if len(s.Frames) < 2 {
		return nil, fmt.Errorf("features: shot %d has %d frames, need at least 2", s.ID, len(s.Frames))
	}
	if s.Audio == nil || len(s.Audio.Samples) < audioFrameSize {
		return nil, fmt.Errorf("features: shot %d has no usable audio", s.ID)
	}
	v := make([]float64, K)
	extractVisual(s.Frames, v)
	extractAudio(s.Audio, v)
	return v, nil
}

// extractVisual fills the 5 visual features.
func extractVisual(frames []*videomodel.Frame, v []float64) {
	var grassSum, changeSum, histSum float64
	var bgMeanSum, bgVarSum float64
	var prevHist []float64

	for fi, f := range frames {
		pixels := float64(f.Pixels())

		// grass_ratio and background statistics for this frame.
		var grass int
		var bgSum, bgSumSq float64
		var bgN int
		for i := range f.Luma {
			if f.Green[i] >= grassGreenThreshold {
				grass++
			} else {
				l := float64(f.Luma[i])
				bgSum += l
				bgSumSq += float64(l * l)
				bgN++
			}
		}
		grassSum += float64(grass) / pixels
		if bgN > 0 {
			mean := bgSum / float64(bgN)
			bgMeanSum += mean
			bgVarSum += bgSumSq/float64(bgN) - float64(mean*mean)
		}

		// Luma histogram for histo_change.
		hist := make([]float64, histogramBins)
		for _, l := range f.Luma {
			hist[int(l)*histogramBins/256]++
		}
		for i := range hist {
			hist[i] /= pixels
		}
		if prevHist != nil {
			var d float64
			for i := range hist {
				diff := hist[i] - prevHist[i]
				if diff < 0 {
					diff = -diff
				}
				d += diff
			}
			histSum += d
		}
		prevHist = hist

		// pixel_change_percent against the previous frame.
		if fi > 0 {
			prev := frames[fi-1]
			var changed int
			for i := range f.Luma {
				d := int(f.Luma[i]) - int(prev.Luma[i])
				if d < 0 {
					d = -d
				}
				if d > pixelChangeDelta {
					changed++
				}
			}
			changeSum += float64(changed) / pixels
		}
	}

	n := float64(len(frames))
	v[GrassRatio] = grassSum / n
	v[PixelChangePercent] = changeSum / (n - 1)
	v[HistoChange] = histSum / (n - 1)
	v[BackgroundVar] = bgVarSum / n
	v[BackgroundMean] = bgMeanSum / n
}

// extractAudio fills the 15 audio features from framed volume, energy,
// sub-band, and spectral-flux series.
func extractAudio(clip *videomodel.AudioClip, v []float64) {
	frames := dsp.Frames(clip.Samples, audioFrameSize, audioFrameHop)
	nf := len(frames)
	volume := make([]float64, nf)
	energy := make([]float64, nf)
	sub1 := make([]float64, nf)
	sub3 := make([]float64, nf)
	flux := make([]float64, 0, nf-1)

	var prevSpec []float64
	for i, fr := range frames {
		rms := dsp.RMS(fr)
		volume[i] = rms
		energy[i] = rms * rms
		spec := dsp.Spectrum(fr)
		sub1[i] = dsp.SubBandRMS(spec, clip.SampleRate, dsp.Band{LowHz: 0, HighHz: sub2LowHz})
		sub3[i] = dsp.SubBandRMS(spec, clip.SampleRate, dsp.Band{LowHz: sub3LowHz, HighHz: sub3HighHz})
		if prevSpec != nil {
			flux = append(flux, dsp.SpectralFlux(prevSpec, spec))
		}
		prevSpec = spec
	}

	volStats := dsp.SeriesStats(volume)
	v[VolumeMean] = normBy(volStats.Mean, volStats.Max)
	v[VolumeStd] = normBy(volStats.Std, volStats.Max)
	v[VolumeStdd] = dsp.SeriesStats(dsp.Diff(volume)).Std
	v[VolumeRange] = dsp.DynamicRange(volume)

	v[EnergyMean] = dsp.SeriesStats(energy).Mean
	v[Sub1Mean] = dsp.SeriesStats(sub1).Mean
	v[Sub3Mean] = dsp.SeriesStats(sub3).Mean
	v[EnergyLowRate] = dsp.LowRate(energy, 0.5)
	v[Sub1LowRate] = dsp.LowRate(powerSeries(sub1), 0.5)
	v[Sub3LowRate] = dsp.LowRate(powerSeries(sub3), 0.5)
	v[Sub1Std] = dsp.SeriesStats(powerSeries(sub1)).Std

	fluxStats := dsp.SeriesStats(flux)
	v[SFMean] = fluxStats.Mean
	v[SFStd] = normBy(fluxStats.Std, fluxStats.Max)
	v[SFStdd] = normBy(dsp.SeriesStats(dsp.Diff(flux)).Std, fluxStats.Max)
	v[SFRange] = dsp.DynamicRange(flux)
}

// powerSeries squares an RMS series to obtain the power series the
// "lowrate" and sub1_std features are defined over.
func powerSeries(rms []float64) []float64 {
	out := make([]float64, len(rms))
	for i, v := range rms {
		out[i] = v * v
	}
	return out
}

// normBy divides v by max when max is positive, mirroring the Table-1
// "normalized by the maximum" qualifiers.
func normBy(v, max float64) float64 {
	if max <= 0 {
		return 0
	}
	return v / max
}
