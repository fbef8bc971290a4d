package feedback

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/videodb/hmmm/internal/atomicwrite"
	"github.com/videodb/hmmm/internal/dataset"
	"github.com/videodb/hmmm/internal/hmmm"
)

func persistTestLog(t *testing.T) *Log {
	t.Helper()
	c, err := dataset.Build(dataset.Config{Seed: 5, Videos: 3, Shots: 60, Annotated: 15, Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := hmmm.Build(c.Archive, c.Features, hmmm.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	l := NewLog()
	for _, states := range [][]int{{0, 1}, {2, 3}, {0, 1}} {
		if err := l.MarkPositive(m, states); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

// loadLogBytes runs LoadLog over data written to a fresh file.
func loadLogBytes(t *testing.T, data []byte) (*Log, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "feedback.log")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return LoadLog(path)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	l := persistTestLog(t)
	var buf bytes.Buffer
	if err := l.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := loadLogBytes(t, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != l.Len() || got.Pending() != l.Pending() {
		t.Errorf("round trip: len %d/%d pending %d/%d", got.Len(), l.Len(), got.Pending(), l.Pending())
	}
	shots := got.ShotPatterns()
	if len(shots) != 2 || shots[0].Freq+shots[1].Freq != 3 {
		t.Errorf("shot patterns after round trip: %+v", shots)
	}
}

func TestLoadLogDetectsCorruption(t *testing.T) {
	l := persistTestLog(t)
	var buf bytes.Buffer
	if err := l.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	flip := func(data []byte, i int) []byte {
		out := append([]byte(nil), data...)
		out[i] ^= 0x5a
		return out
	}
	cases := map[string][]byte{
		"payload bit flip": flip(good, len(good)-3),
		"header bit flip":  flip(good, 4),
		"truncated":        good[:len(good)-7],
		"not a log":        []byte("these are not the bytes you are looking for"),
		"empty":            {},
	}
	for name, data := range cases {
		if _, err := loadLogBytes(t, data); !errors.Is(err, atomicwrite.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	// The pristine bytes still load.
	if _, err := loadLogBytes(t, good); err != nil {
		t.Errorf("pristine log rejected: %v", err)
	}
}

func TestTakeAndAddPending(t *testing.T) {
	l := persistTestLog(t)
	if n := l.TakePending(); n != 3 {
		t.Fatalf("TakePending = %d, want 3", n)
	}
	if l.Pending() != 0 {
		t.Fatalf("pending after take = %d", l.Pending())
	}
	l.AddPending(3)
	if l.Pending() != 3 {
		t.Fatalf("pending after restore = %d", l.Pending())
	}
}

func TestResetPending(t *testing.T) {
	l := persistTestLog(t)
	l.ResetPending()
	if l.Pending() != 0 {
		t.Fatalf("pending after reset = %d", l.Pending())
	}
	if l.Len() != 2 {
		t.Fatalf("reset dropped patterns: %d distinct, want 2", l.Len())
	}
	if n := l.TakePending(); n != 0 {
		t.Fatalf("TakePending after reset = %d, want 0", n)
	}
}
