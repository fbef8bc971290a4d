package media

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"github.com/videodb/hmmm/internal/synthaudio"
	"github.com/videodb/hmmm/internal/synthvideo"
	"github.com/videodb/hmmm/internal/videomodel"
	"github.com/videodb/hmmm/internal/xrand"
)

// pcm decodes the 16-bit samples after a WriteWAV stream's 44-byte header.
func pcm(b []byte) []float64 {
	out := make([]float64, (len(b)-44)/2)
	for i := range out {
		out[i] = float64(int16(binary.LittleEndian.Uint16(b[44+2*i:]))) / 32767
	}
	return out
}

func TestWriteWAV(t *testing.T) {
	clip := synthaudio.Synthesize(xrand.New(1), videomodel.EventGoal, 1000)
	var buf bytes.Buffer
	if err := WriteWAV(&buf, clip); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if want := 44 + 2*len(clip.Samples); len(b) != want {
		t.Fatalf("WAV size = %d, want %d", len(b), want)
	}
	if string(b[0:4]) != "RIFF" || string(b[8:16]) != "WAVEfmt " || string(b[36:40]) != "data" {
		t.Fatalf("WAV header malformed: %q", b[:44])
	}
	if ch := binary.LittleEndian.Uint16(b[22:]); ch != 1 {
		t.Errorf("channels = %d, want 1", ch)
	}
	if rate := binary.LittleEndian.Uint32(b[24:]); int(rate) != clip.SampleRate {
		t.Errorf("sample rate = %d, want %d", rate, clip.SampleRate)
	}
	for i, s := range pcm(b) {
		if math.Abs(s-clip.Samples[i]) > 1.0/32000 {
			t.Fatalf("sample %d: %v vs %v beyond 16-bit quantization", i, s, clip.Samples[i])
		}
	}
}

func TestWAVClampsOutOfRange(t *testing.T) {
	clip := &videomodel.AudioClip{SampleRate: 8000, Samples: []float64{2, -2, 0}}
	var buf bytes.Buffer
	if err := WriteWAV(&buf, clip); err != nil {
		t.Fatal(err)
	}
	if s := pcm(buf.Bytes()); s[0] != 1 || s[1] != -1 {
		t.Errorf("clamped samples = %v", s[:2])
	}
}

func TestWriteWAVErrors(t *testing.T) {
	if err := WriteWAV(&bytes.Buffer{}, nil); err == nil {
		t.Error("nil clip accepted")
	}
	if err := WriteWAV(&bytes.Buffer{}, &videomodel.AudioClip{}); err == nil {
		t.Error("zero-rate clip accepted")
	}
}

func TestWritePPM(t *testing.T) {
	r := synthvideo.NewRenderer(0, 0, 0)
	frame := r.RenderShot(xrand.New(5), videomodel.EventGoalKick, 1000)[0]
	var buf bytes.Buffer
	if err := WritePPM(&buf, frame); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("P6\n")) {
		t.Error("PPM magic missing")
	}
	// Header + 3 bytes per pixel.
	if buf.Len() < 3*frame.Pixels() {
		t.Errorf("PPM size %d too small for %d pixels", buf.Len(), frame.Pixels())
	}
	// Grass-heavy frame: mean green channel should exceed mean red.
	data := buf.Bytes()[len(buf.Bytes())-3*frame.Pixels():]
	var red, green int
	for i := 0; i < len(data); i += 3 {
		red += int(data[i])
		green += int(data[i+1])
	}
	if green <= red {
		t.Errorf("grass frame PPM: green %d should exceed red %d", green, red)
	}
}

func TestWritePPMErrors(t *testing.T) {
	if err := WritePPM(&bytes.Buffer{}, nil); err == nil {
		t.Error("nil frame accepted")
	}
	if err := WritePPM(&bytes.Buffer{}, &videomodel.Frame{}); err == nil {
		t.Error("empty frame accepted")
	}
}
