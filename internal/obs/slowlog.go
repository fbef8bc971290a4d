package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// SlowLog is a threshold-gated structured log: entries whose measured
// duration meets the threshold are appended to the writer as one JSON
// object per line (JSON Lines), the grep/jq-friendly format for
// capturing the pathological tail of a workload without logging the
// healthy bulk. A nil *SlowLog is disabled at every method.
type SlowLog struct {
	mu        sync.Mutex
	w         io.Writer
	threshold time.Duration
}

// NewSlowLog returns a slow log writing to w for durations >=
// threshold. A nil writer or non-positive threshold yields nil — the
// disabled log — so callers can build it straight from configuration
// and never check the knobs again.
func NewSlowLog(w io.Writer, threshold time.Duration) *SlowLog {
	if w == nil || threshold <= 0 {
		return nil
	}
	return &SlowLog{w: w, threshold: threshold}
}

// Enabled reports whether entries can ever be recorded.
func (l *SlowLog) Enabled() bool { return l != nil }

// Record writes the entry as one JSON line if d meets the threshold,
// reporting whether it did. Writes are serialized so concurrent slow
// queries never interleave bytes within a line.
func (l *SlowLog) Record(d time.Duration, entry any) (bool, error) {
	if l == nil || d < l.threshold {
		return false, nil
	}
	b, err := json.Marshal(entry)
	if err != nil {
		return false, err
	}
	b = append(b, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	_, err = l.w.Write(b)
	return true, err
}
