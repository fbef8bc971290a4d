package feedback

import (
	"fmt"
	"io"

	"github.com/videodb/hmmm/internal/atomicwrite"
)

// The log persists as one atomicwrite record. Its checksum is what lets
// startup tell a torn or bit-rotted log from a healthy one and fall
// back along the .tmp/.bak recovery chain instead of training on
// garbage.
const (
	logMagic   = "HMMMFLOG"
	logVersion = 1
)

// logPayload is the wire form of a Log.
type logPayload struct {
	Shots   []patternPayload
	Videos  []patternPayload
	Pending int
}

type patternPayload struct {
	States []int
	Freq   int
}

// Save writes the log to w as a checksummed record. The accumulated
// access patterns are the system's learned user knowledge — the paper's
// training data — so they must survive restarts alongside the model
// snapshot, and a half-written file must be detectable as such.
func (l *Log) Save(w io.Writer) error {
	l.mu.Lock()
	payload := logPayload{Pending: l.pending}
	for _, e := range l.shots {
		payload.Shots = append(payload.Shots, patternPayload{States: e.states, Freq: e.freq})
	}
	for _, e := range l.videos {
		payload.Videos = append(payload.Videos, patternPayload{States: e.states, Freq: e.freq})
	}
	l.mu.Unlock()
	if err := atomicwrite.EncodeRecord(w, logMagic, logVersion, "", payload); err != nil {
		return fmt.Errorf("feedback: %w", err)
	}
	return nil
}

// LoadLog reads the log file at path, written by Save, verifying the
// header and payload checksum. Integrity failures wrap
// atomicwrite.ErrCorrupt so callers can tell a damaged file (fall back
// to a backup) from an I/O error.
func LoadLog(path string) (*Log, error) {
	var payload logPayload
	if err := atomicwrite.ReadPayload(path, logMagic, logVersion, &payload); err != nil {
		return nil, fmt.Errorf("feedback: %w", err)
	}
	l := NewLog()
	for _, p := range payload.Shots {
		l.shots[key(p.States)] = &entry{states: p.States, freq: p.Freq}
	}
	for _, p := range payload.Videos {
		l.videos[key(p.States)] = &entry{states: p.States, freq: p.Freq}
	}
	l.pending = payload.Pending
	return l, nil
}
