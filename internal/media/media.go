// Package media encodes the synthetic frames and audio clips into standard
// file formats — PPM rasters and 16-bit PCM WAV — so the corpus can be
// eyeballed with ordinary image viewers and audio players.
//
// Everything is implemented directly against the format specifications
// with the standard library only.
package media

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"github.com/videodb/hmmm/internal/videomodel"
)

// WriteWAV encodes the clip as a 16-bit mono PCM WAV stream. Samples are
// clamped to [-1, 1].
func WriteWAV(w io.Writer, clip *videomodel.AudioClip) error {
	if clip == nil || clip.SampleRate <= 0 {
		return errors.New("media: clip missing or has no sample rate")
	}
	n := len(clip.Samples)
	dataSize := uint32(n * 2)
	var hdr [44]byte
	copy(hdr[0:4], "RIFF")
	binary.LittleEndian.PutUint32(hdr[4:8], 36+dataSize)
	copy(hdr[8:12], "WAVE")
	copy(hdr[12:16], "fmt ")
	binary.LittleEndian.PutUint32(hdr[16:20], 16) // PCM chunk size
	binary.LittleEndian.PutUint16(hdr[20:22], 1)  // PCM format
	binary.LittleEndian.PutUint16(hdr[22:24], 1)  // mono
	binary.LittleEndian.PutUint32(hdr[24:28], uint32(clip.SampleRate))
	binary.LittleEndian.PutUint32(hdr[28:32], uint32(clip.SampleRate*2)) // byte rate
	binary.LittleEndian.PutUint16(hdr[32:34], 2)                         // block align
	binary.LittleEndian.PutUint16(hdr[34:36], 16)                        // bits per sample
	copy(hdr[36:40], "data")
	binary.LittleEndian.PutUint32(hdr[40:44], dataSize)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	buf := make([]byte, 2*n)
	for i, s := range clip.Samples {
		if s > 1 {
			s = 1
		} else if s < -1 {
			s = -1
		}
		v := int16(math.Round(s * 32767))
		binary.LittleEndian.PutUint16(buf[2*i:], uint16(v))
	}
	_, err := w.Write(buf)
	return err
}

// WritePPM encodes the frame as a binary PPM (P6) color image, rendering
// the green-dominance plane into the green channel so grass is visibly
// green.
func WritePPM(w io.Writer, f *videomodel.Frame) error {
	if f == nil || f.W <= 0 || f.H <= 0 {
		return errors.New("media: empty frame")
	}
	if _, err := fmt.Fprintf(w, "P6\n%d %d\n255\n", f.W, f.H); err != nil {
		return err
	}
	buf := make([]byte, 3*f.Pixels())
	for i := range f.Luma {
		l := int(f.Luma[i])
		g := int(f.Green[i])
		// Mix luminance with green dominance: grass pixels gain green,
		// others stay near gray.
		buf[3*i] = clampByte(l - g/3)
		buf[3*i+1] = clampByte(l + g/3)
		buf[3*i+2] = clampByte(l - g/3)
	}
	_, err := w.Write(buf)
	return err
}

func clampByte(v int) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v)
}
