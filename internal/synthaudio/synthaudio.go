// Package synthaudio procedurally synthesizes the audio track of soccer
// shots: crowd noise, referee whistles, goal roars, boos, and announcer
// speech, parameterized per shot class.
//
// As with synthvideo, the synthesis is not meant to sound like a stadium;
// it is meant to make the 15 Table-1 audio features (volume statistics,
// sub-band energies, low-energy rates, spectral flux statistics) carry the
// same class-discriminative signal real broadcast audio carries: goals are
// loud with a rising roar and high spectral flux, set pieces start with a
// whistle (a 2.5 kHz tone landing in sub-band 3), quiet restarts have a
// high low-energy rate, announcer speech concentrates energy mid-band.
package synthaudio

import (
	"math"

	"github.com/videodb/hmmm/internal/videomodel"
	"github.com/videodb/hmmm/internal/xrand"
)

// SampleRate is the synthesis sample rate in Hz. 8 kHz keeps an
// 11,567-shot corpus fast to synthesize while leaving sub-band 3
// (2-4 kHz) fully below Nyquist.
const SampleRate = 8000

// Profile parameterizes the audio character of a shot class.
type Profile struct {
	BaseLevel float64 // baseline crowd-noise amplitude
	Roar      float64 // extra amplitude of a rising crowd roar (goals)
	Whistle   bool    // referee whistle burst at shot start
	Boo       float64 // low-frequency crowd displeasure level (cards)
	Speech    float64 // announcer speech-band level (player changes)
	Excite    float64 // amplitude modulation depth (drives spectral flux)
}

var profiles = map[videomodel.Event]Profile{
	videomodel.EventNone:         {BaseLevel: 0.12, Excite: 0.15},
	videomodel.EventGoal:         {BaseLevel: 0.30, Roar: 0.55, Excite: 0.70},
	videomodel.EventCornerKick:   {BaseLevel: 0.22, Excite: 0.25},
	videomodel.EventFreeKick:     {BaseLevel: 0.16, Whistle: true, Excite: 0.20},
	videomodel.EventFoul:         {BaseLevel: 0.26, Whistle: true, Excite: 0.35},
	videomodel.EventGoalKick:     {BaseLevel: 0.10, Excite: 0.10},
	videomodel.EventYellowCard:   {BaseLevel: 0.20, Whistle: true, Boo: 0.20, Excite: 0.30},
	videomodel.EventRedCard:      {BaseLevel: 0.28, Whistle: true, Boo: 0.40, Excite: 0.45},
	videomodel.EventPlayerChange: {BaseLevel: 0.14, Speech: 0.30, Excite: 0.20},
}

// ProfileFor returns the audio profile of a shot class. Unknown events fall
// back to ordinary play.
func ProfileFor(e videomodel.Event) Profile {
	if p, ok := profiles[e]; ok {
		return p
	}
	return profiles[videomodel.EventNone]
}

// Synthesize renders the audio clip of one shot of the given class and
// duration. The same RNG state always yields the same samples.
func Synthesize(rng *xrand.RNG, class videomodel.Event, durationMS int) *videomodel.AudioClip {
	p := ProfileFor(class)
	n := durationMS * SampleRate / 1000
	if n < SampleRate/4 {
		n = SampleRate / 4 // at least 250 ms so framed features are defined
	}
	samples := make([]float64, n)

	base := p.BaseLevel * rng.Range(0.8, 1.2)
	excite := p.Excite * rng.Range(0.8, 1.2)

	// Crowd noise: white noise through a one-pole low-pass, amplitude
	// modulated by a slow excitement LFO plus an optional roar ramp that
	// peaks mid-shot (the goal moment) and decays.
	lp := 0.0
	const lpA = 0.85
	lfoHz := rng.Range(0.5, 2.0)
	lfoPhase := rng.Range(0, 2*math.Pi)
	roarPeak := rng.Range(0.3, 0.6) // where in the shot the roar peaks
	for i := 0; i < n; i++ {
		t := float64(i) / SampleRate
		white := rng.Norm(0, 1)
		lp = float64(lpA*lp) + float64((1-lpA)*white)

		amp := float64(base * (1 + float64(excite*math.Sin(float64(2*math.Pi*lfoHz*t)+lfoPhase))))
		if p.Roar > 0 {
			pos := float64(i) / float64(n)
			amp += float64(p.Roar * roarEnvelope(pos, roarPeak))
		}
		samples[i] += float64(amp * lp * 3) // low-pass attenuates; rescale
	}

	// Referee whistle: a 2.2-2.8 kHz tone burst in the first half second,
	// with vibrato. Lands squarely in sub-band 3.
	if p.Whistle {
		f0 := rng.Range(2200, 2800)
		start := int(rng.Range(0, 0.1) * SampleRate)
		dur := int(rng.Range(0.3, 0.6) * SampleRate)
		level := rng.Range(0.25, 0.45)
		for i := start; i < start+dur && i < n; i++ {
			t := float64(i-start) / SampleRate
			env := math.Sin(math.Pi * float64(i-start) / float64(dur)) // fade in/out
			vib := 1 + float64(0.01*math.Sin(2*math.Pi*30*t))
			samples[i] += float64(level * env * math.Sin(2*math.Pi*f0*vib*t))
		}
	}

	// Boos: band-limited noise around 150-300 Hz.
	if p.Boo > 0 {
		phase := 0.0
		for i := 0; i < n; i++ {
			freq := 150 + float64(100*math.Abs(math.Sin(float64(i)/7000)))
			phase += 2 * math.Pi * freq / SampleRate
			env := 0.5 + float64(0.5*math.Sin(float64(i)/4000+1))
			samples[i] += float64(p.Boo * env * 0.5 * math.Sin(phase+float64(0.3*rng.Norm(0, 1))))
		}
	}

	// Announcer speech: amplitude-modulated harmonics at 180-400 Hz with
	// syllable-rate (4-7 Hz) gating — concentrates energy in sub-band 1
	// and produces speech-like flux.
	if p.Speech > 0 {
		f0 := rng.Range(180, 400)
		sylHz := rng.Range(4, 7)
		for i := 0; i < n; i++ {
			t := float64(i) / SampleRate
			gate := math.Max(0, math.Sin(2*math.Pi*sylHz*t))
			v := math.Sin(2*math.Pi*f0*t) + float64(0.5*math.Sin(2*math.Pi*2*f0*t)) + float64(0.25*math.Sin(2*math.Pi*3*f0*t))
			samples[i] += float64(p.Speech * gate * v * 0.5)
		}
	}

	// Soft clip to [-1, 1].
	for i, v := range samples {
		samples[i] = math.Tanh(v)
	}
	return &videomodel.AudioClip{SampleRate: SampleRate, Samples: samples}
}

// roarEnvelope is a skewed bump: fast rise to the peak position, slower
// exponential decay after it.
func roarEnvelope(pos, peak float64) float64 {
	if pos < peak {
		if peak == 0 {
			return 1
		}
		x := pos / peak
		return x * x
	}
	return math.Exp(-4 * (pos - peak))
}
