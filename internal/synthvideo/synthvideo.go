// Package synthvideo procedurally renders soccer-like video shots.
//
// The paper evaluates HMMM on 54 real soccer videos; raw footage is not
// available here (see DESIGN.md, substitutions), so this package synthesizes
// per-frame rasters whose *extracted* Table-1 visual features behave like
// those of real soccer broadcast shots:
//
//   - wide-angle play and set-piece shots are dominated by grass pixels
//     (high grass_ratio), with pixel change driven by camera panning;
//   - goal shots cut to crowd/celebration close-ups: low grass ratio, large
//     histogram change, high background variance, heavy motion;
//   - card shots are near-static referee close-ups;
//   - player changes are sideline shots with little grass.
//
// Rendering is fully deterministic given an xrand.RNG, so the corpus is
// reproducible bit-for-bit from a seed.
package synthvideo

import (
	"github.com/videodb/hmmm/internal/videomodel"
	"github.com/videodb/hmmm/internal/xrand"
)

// Profile parameterizes the visual appearance of a shot class. Values are
// the centers of per-shot jitter ranges.
type Profile struct {
	GrassFrac  float64 // fraction of the frame covered by grass
	PanSpeed   float64 // camera pan in pixels/frame (drives pixel change)
	SpriteN    int     // number of moving player sprites
	SpriteSpd  float64 // sprite speed in pixels/frame
	BgMean     float64 // background (stands/crowd) luma mean
	BgStd      float64 // background luma standard deviation
	Flicker    float64 // fraction of pixels receiving per-frame luma noise
	LightDrift float64 // amplitude of global lighting random walk per frame
}

// profiles maps each shot class (EventNone = ordinary play) to its visual
// profile. The relative ordering of the classes along each feature axis is
// what matters: it gives the downstream decision tree and the Eq. 14
// similarity function the same discriminative signal real footage gives.
var profiles = map[videomodel.Event]Profile{
	videomodel.EventNone:         {GrassFrac: 0.70, PanSpeed: 1.2, SpriteN: 6, SpriteSpd: 1.0, BgMean: 120, BgStd: 18, Flicker: 0.02, LightDrift: 0.5},
	videomodel.EventGoal:         {GrassFrac: 0.30, PanSpeed: 3.5, SpriteN: 10, SpriteSpd: 2.5, BgMean: 135, BgStd: 38, Flicker: 0.10, LightDrift: 4.0},
	videomodel.EventCornerKick:   {GrassFrac: 0.80, PanSpeed: 0.6, SpriteN: 8, SpriteSpd: 0.6, BgMean: 115, BgStd: 16, Flicker: 0.02, LightDrift: 0.4},
	videomodel.EventFreeKick:     {GrassFrac: 0.75, PanSpeed: 0.4, SpriteN: 7, SpriteSpd: 0.4, BgMean: 118, BgStd: 15, Flicker: 0.015, LightDrift: 0.3},
	videomodel.EventFoul:         {GrassFrac: 0.50, PanSpeed: 2.0, SpriteN: 5, SpriteSpd: 1.8, BgMean: 125, BgStd: 24, Flicker: 0.05, LightDrift: 1.5},
	videomodel.EventGoalKick:     {GrassFrac: 0.85, PanSpeed: 0.3, SpriteN: 3, SpriteSpd: 0.3, BgMean: 112, BgStd: 13, Flicker: 0.01, LightDrift: 0.2},
	videomodel.EventYellowCard:   {GrassFrac: 0.20, PanSpeed: 0.2, SpriteN: 2, SpriteSpd: 0.2, BgMean: 150, BgStd: 28, Flicker: 0.02, LightDrift: 0.6},
	videomodel.EventRedCard:      {GrassFrac: 0.15, PanSpeed: 0.2, SpriteN: 2, SpriteSpd: 0.3, BgMean: 155, BgStd: 32, Flicker: 0.03, LightDrift: 0.9},
	videomodel.EventPlayerChange: {GrassFrac: 0.10, PanSpeed: 0.8, SpriteN: 4, SpriteSpd: 0.5, BgMean: 95, BgStd: 20, Flicker: 0.02, LightDrift: 0.5},
}

// ProfileFor returns the visual profile of a shot class. Unknown events
// fall back to the ordinary-play profile.
func ProfileFor(e videomodel.Event) Profile {
	if p, ok := profiles[e]; ok {
		return p
	}
	return profiles[videomodel.EventNone]
}

// Renderer renders shots at a fixed raster size and frame sampling rate.
// The zero value is not useful; use NewRenderer.
type Renderer struct {
	w, h        int
	framePeriod int // milliseconds between sampled frames
}

// DefaultWidth and DefaultHeight are the default raster dimensions. They
// are intentionally small: the Table-1 features are ratio and
// histogram statistics that are scale-invariant, and an 11,567-shot corpus
// must render in seconds, not hours.
const (
	DefaultWidth       = 48
	DefaultHeight      = 32
	DefaultFramePeriod = 250 // 4 sampled frames per second
)

// NewRenderer returns a renderer with the given raster size and frame
// sampling period in milliseconds. Non-positive arguments select the
// defaults.
func NewRenderer(w, h, framePeriodMS int) *Renderer {
	if w <= 0 {
		w = DefaultWidth
	}
	if h <= 0 {
		h = DefaultHeight
	}
	if framePeriodMS <= 0 {
		framePeriodMS = DefaultFramePeriod
	}
	return &Renderer{w: w, h: h, framePeriod: framePeriodMS}
}

// FrameCount returns the number of frames RenderShot produces for a shot of
// the given duration (at least 2, so change-based features are defined).
func (r *Renderer) FrameCount(durationMS int) int {
	n := durationMS / r.framePeriod
	if n < 2 {
		n = 2
	}
	return n
}

// sprite is a moving player rectangle.
type sprite struct {
	x, y, vx, vy float64
	w, h         int
	luma         uint8
}

// RenderShot renders the sampled frames of one shot of the given class and
// duration. The same RNG state always yields the same frames.
func (r *Renderer) RenderShot(rng *xrand.RNG, class videomodel.Event, durationMS int) []*videomodel.Frame {
	p := ProfileFor(class)
	n := r.FrameCount(durationMS)

	// Per-shot jitter: every shot of a class looks similar but not
	// identical, exactly like real footage.
	grass := clamp01(p.GrassFrac + rng.Norm(0, 0.05))
	pan := float64(p.PanSpeed * rng.Range(0.7, 1.3))
	bgMean := p.BgMean + rng.Norm(0, 5)
	bgStd := p.BgStd * rng.Range(0.8, 1.2)
	flicker := p.Flicker * rng.Range(0.7, 1.3)
	drift := p.LightDrift * rng.Range(0.7, 1.3)

	grassLine := int(float64(r.h) * (1 - grass))
	if grassLine < 0 {
		grassLine = 0
	}
	if grassLine > r.h {
		grassLine = r.h
	}

	// Static textures panned by the camera. Texture width exceeds the
	// frame so panning reveals genuinely new columns.
	texW := r.w * 4
	grassTex := make([]float64, texW)
	bgTex := make([]float64, texW)
	for i := 0; i < texW; i++ {
		grassTex[i] = 95 + rng.Norm(0, 8)
		// Mowing stripes every 8 columns, a strong real-grass cue.
		if (i/8)%2 == 0 {
			grassTex[i] += 12
		}
		bgTex[i] = bgMean + rng.Norm(0, bgStd)
	}

	sprites := make([]sprite, p.SpriteN)
	for i := range sprites {
		luma := uint8(230)
		if rng.Bool(0.5) {
			luma = 25
		}
		sprites[i] = sprite{
			x:    rng.Range(0, float64(r.w)),
			y:    rng.Range(float64(grassLine), float64(r.h)),
			vx:   rng.Norm(0, p.SpriteSpd),
			vy:   rng.Norm(0, p.SpriteSpd/2),
			w:    2,
			h:    3,
			luma: luma,
		}
	}

	frames := make([]*videomodel.Frame, n)
	camX := rng.Range(0, float64(texW))
	light := 0.0
	for fi := 0; fi < n; fi++ {
		f := videomodel.NewFrame(r.w, r.h)
		base := int(camX)
		for y := 0; y < r.h; y++ {
			for x := 0; x < r.w; x++ {
				idx := y*r.w + x
				var luma float64
				if y >= grassLine {
					luma = grassTex[(base+x)%texW]
					f.Green[idx] = uint8(clamp(170+rng.Norm(0, 15), 0, 255))
				} else {
					// Stands pan slower than the pitch (parallax).
					luma = bgTex[(base/3+x)%texW]
					f.Green[idx] = uint8(clamp(40+rng.Norm(0, 12), 0, 255))
				}
				luma += light
				if rng.Float64() < flicker {
					luma += rng.Norm(0, 25)
				}
				f.Luma[idx] = uint8(clamp(luma, 0, 255))
			}
		}
		for si := range sprites {
			drawSprite(f, &sprites[si])
			sprites[si].x += sprites[si].vx
			sprites[si].y += sprites[si].vy
			sprites[si].x = wrap(sprites[si].x, float64(r.w))
			sprites[si].y = clamp(sprites[si].y, float64(grassLine), float64(r.h-1))
		}
		camX += pan
		light += rng.Norm(0, drift)
		light = clamp(light, -40, 40)
		frames[fi] = f
	}
	return frames
}

func drawSprite(f *videomodel.Frame, s *sprite) {
	x0, y0 := int(s.x), int(s.y)
	for dy := 0; dy < s.h; dy++ {
		for dx := 0; dx < s.w; dx++ {
			x, y := x0+dx, y0+dy
			if x < 0 || x >= f.W || y < 0 || y >= f.H {
				continue
			}
			idx := y*f.W + x
			f.Luma[idx] = s.luma
			f.Green[idx] = 30
		}
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clamp01(v float64) float64 { return clamp(v, 0, 1) }

func wrap(v, limit float64) float64 {
	for v < 0 {
		v += limit
	}
	for v >= limit {
		v -= limit
	}
	return v
}
