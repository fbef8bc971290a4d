// Package shotdetect segments a continuous frame sequence into shots, the
// first pipeline stage of the paper's framework (Figure 1: "video shot
// detection and segmentation algorithms").
//
// The detector is the classic twin-comparison histogram method: a hard cut
// is declared where the luma-histogram difference between consecutive
// frames exceeds an adaptive threshold (median + k·MAD of the recent
// difference signal), subject to a minimum shot length that suppresses
// flash-induced double cuts.
package shotdetect

import (
	"fmt"
	"math"
	"sort"

	"github.com/videodb/hmmm/internal/videomodel"
)

// Config tunes the detector. The zero value is not useful; DefaultConfig
// provides sensible settings for the synthetic corpus.
type Config struct {
	Bins         int     // luma histogram bins
	K            float64 // threshold = median + K*MAD of the sliding window
	Window       int     // sliding window length (frames) for the adaptive threshold
	MinShotLen   int     // minimum shot length in frames
	MinThreshold float64 // absolute floor for the cut threshold
}

// DefaultConfig returns the detector configuration used by the pipeline
// experiment.
func DefaultConfig() Config {
	return Config{Bins: 32, K: 4, Window: 24, MinShotLen: 3, MinThreshold: 0.25}
}

// Boundary is a detected shot boundary: the index of the first frame of a
// new shot.
type Boundary struct {
	Frame int     // index of the first frame of the new shot
	Score float64 // histogram difference that triggered the cut
}

// Detector segments frame sequences using a fixed configuration.
type Detector struct {
	cfg Config
}

// New returns a detector, validating the configuration.
func New(cfg Config) (*Detector, error) {
	if cfg.Bins <= 0 || cfg.Bins > 256 {
		return nil, fmt.Errorf("shotdetect: bins = %d, want 1..256", cfg.Bins)
	}
	if cfg.Window < 2 {
		return nil, fmt.Errorf("shotdetect: window = %d, want >= 2", cfg.Window)
	}
	if cfg.MinShotLen < 1 {
		return nil, fmt.Errorf("shotdetect: min shot length = %d, want >= 1", cfg.MinShotLen)
	}
	if cfg.K <= 0 {
		return nil, fmt.Errorf("shotdetect: K = %v, want > 0", cfg.K)
	}
	return &Detector{cfg: cfg}, nil
}

// histogram returns the normalized luma histogram of a frame.
func (d *Detector) histogram(f *videomodel.Frame) []float64 {
	h := make([]float64, d.cfg.Bins)
	for _, l := range f.Luma {
		h[int(l)*d.cfg.Bins/256]++
	}
	n := float64(f.Pixels())
	for i := range h {
		h[i] /= n
	}
	return h
}

// diffSignal computes the frame-to-frame histogram L1 differences; entry i
// is the difference between frames i and i+1.
func (d *Detector) diffSignal(frames []*videomodel.Frame) []float64 {
	if len(frames) < 2 {
		return nil
	}
	out := make([]float64, len(frames)-1)
	prev := d.histogram(frames[0])
	for i := 1; i < len(frames); i++ {
		cur := d.histogram(frames[i])
		var diff float64
		for b := range cur {
			v := cur[b] - prev[b]
			if v < 0 {
				v = -v
			}
			diff += v
		}
		out[i-1] = diff
		prev = cur
	}
	return out
}

// Detect returns the shot boundaries of the frame sequence. Frame 0 is
// always an implicit boundary and is not reported.
func (d *Detector) Detect(frames []*videomodel.Frame) []Boundary {
	diffs := d.diffSignal(frames)
	var boundaries []Boundary
	lastCut := 0
	for i, diff := range diffs {
		frameIdx := i + 1 // a cut between frames i and i+1 starts a shot at i+1
		threshold := d.adaptiveThreshold(diffs, i)
		if diff > threshold && frameIdx-lastCut >= d.cfg.MinShotLen {
			boundaries = append(boundaries, Boundary{Frame: frameIdx, Score: diff})
			lastCut = frameIdx
		}
	}
	return boundaries
}

// adaptiveThreshold computes median + K·MAD of the difference signal over
// the window preceding position i, floored at MinThreshold. Median/MAD are
// used instead of mean/std because the window may contain the spike of a
// previous cut; a single outlier barely moves the median, so one cut does
// not mask the next.
func (d *Detector) adaptiveThreshold(diffs []float64, i int) float64 {
	lo := i - d.cfg.Window
	if lo < 0 {
		lo = 0
	}
	win := diffs[lo:i]
	if len(win) < 2 {
		return d.cfg.MinThreshold
	}
	med := median(win)
	dev := make([]float64, len(win))
	for j, v := range win {
		dev[j] = math.Abs(v - med)
	}
	// 1.4826 scales MAD to the std of a normal distribution.
	threshold := med + float64(d.cfg.K*1.4826*median(dev))
	if threshold < d.cfg.MinThreshold {
		threshold = d.cfg.MinThreshold
	}
	return threshold
}

// median returns the median of the values without modifying the input.
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Segment splits the frame sequence into per-shot frame slices using the
// detected boundaries. The returned slices alias the input.
func (d *Detector) Segment(frames []*videomodel.Frame) [][]*videomodel.Frame {
	boundaries := d.Detect(frames)
	var shots [][]*videomodel.Frame
	start := 0
	for _, b := range boundaries {
		shots = append(shots, frames[start:b.Frame])
		start = b.Frame
	}
	if start < len(frames) {
		shots = append(shots, frames[start:])
	}
	return shots
}

// Evaluate compares detected boundaries against ground truth with a
// tolerance in frames and returns precision, recall and F1.
func Evaluate(detected []Boundary, truth []int, tolerance int) (precision, recall, f1 float64) {
	if len(detected) == 0 && len(truth) == 0 {
		return 1, 1, 1
	}
	matchedTruth := make([]bool, len(truth))
	tp := 0
	for _, b := range detected {
		for ti, tf := range truth {
			if matchedTruth[ti] {
				continue
			}
			d := b.Frame - tf
			if d < 0 {
				d = -d
			}
			if d <= tolerance {
				matchedTruth[ti] = true
				tp++
				break
			}
		}
	}
	if len(detected) > 0 {
		precision = float64(tp) / float64(len(detected))
	}
	if len(truth) > 0 {
		recall = float64(tp) / float64(len(truth))
	}
	if precision+recall > 0 {
		f1 = 2 * precision * recall / (precision + recall)
	}
	return precision, recall, f1
}
