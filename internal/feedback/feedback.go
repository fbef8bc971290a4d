// Package feedback implements the paper's relevance-feedback loop: users
// mark retrieved video shot sequences as "Positive" patterns; the system
// accumulates these access patterns with their frequencies and, once a
// threshold of new feedback is reached, retrains the HMMM offline
// (Section 4.2.1.1 (2)).
//
// The package also provides the simulated user the experiments use in
// place of the paper's human annotators: it marks a retrieved pattern
// positive exactly when it matches the query's ground-truth annotations,
// with optional judgment noise.
package feedback

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/mmm"
	"github.com/videodb/hmmm/internal/obs"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/xrand"
)

// Log accumulates positive patterns at both HMMM levels. It is safe for
// concurrent use (the HTTP server feeds it from request handlers).
type Log struct {
	mu      sync.Mutex
	shots   map[string]*entry // canonical shot-state sequence -> frequency
	videos  map[string]*entry // canonical video-index set -> frequency
	pending int               // feedbacks since the last Drain
}

type entry struct {
	states []int
	freq   int
}

// NewLog returns an empty feedback log.
func NewLog() *Log {
	return &Log{shots: make(map[string]*entry), videos: make(map[string]*entry)}
}

// MarkPositive records one positive shot pattern (global state indices, in
// temporal order) against the model, deriving the co-accessed video
// pattern from the states. Repeated marks of the same pattern raise its
// access frequency access(k).
func (l *Log) MarkPositive(m *hmmm.Model, states []int) error {
	if len(states) == 0 {
		return errors.New("feedback: empty pattern")
	}
	for _, s := range states {
		if s < 0 || s >= m.NumStates() {
			return fmt.Errorf("feedback: state %d out of range (%d states)", s, m.NumStates())
		}
	}
	var vids []int
	seen := make(map[int]bool)
	for _, s := range states {
		vi := m.VideoOf(s)
		if !seen[vi] {
			seen[vi] = true
			vids = append(vids, vi)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	bump(l.shots, states)
	bump(l.videos, vids)
	l.pending++
	return nil
}

func bump(m map[string]*entry, states []int) {
	k := key(states)
	if e, ok := m[k]; ok {
		e.freq++
		return
	}
	m[k] = &entry{states: append([]int(nil), states...), freq: 1}
}

func key(states []int) string {
	parts := make([]string, len(states))
	for i, s := range states {
		parts[i] = strconv.Itoa(s)
	}
	return strings.Join(parts, ",")
}

// Pending returns the number of positive marks recorded since the last
// ResetPending.
func (l *Log) Pending() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pending
}

// ResetPending zeroes the pending counter (called after a retrain).
func (l *Log) ResetPending() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pending = 0
}

// TakePending zeroes the pending counter and returns the count it held.
// The server's retrain cycle uses it with AddPending to make the counter
// transactional: taken before persisting the post-retrain log, restored
// if the persist fails so the feedback stays eligible for the next
// retrain attempt.
func (l *Log) TakePending() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.pending
	l.pending = 0
	return n
}

// AddPending raises the pending counter by n, preserving marks recorded
// concurrently since the matching TakePending.
func (l *Log) AddPending(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pending += n
}

// ShotPatterns returns the accumulated shot-level access patterns in a
// deterministic order.
func (l *Log) ShotPatterns() []mmm.AccessPattern {
	l.mu.Lock()
	defer l.mu.Unlock()
	return collect(l.shots)
}

// VideoPatterns returns the accumulated video-level access patterns in a
// deterministic order.
func (l *Log) VideoPatterns() []mmm.AccessPattern {
	l.mu.Lock()
	defer l.mu.Unlock()
	return collect(l.videos)
}

func collect(m map[string]*entry) []mmm.AccessPattern {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]mmm.AccessPattern, 0, len(keys))
	for _, k := range keys {
		e := m[k]
		out = append(out, mmm.AccessPattern{States: append([]int(nil), e.states...), Freq: e.freq})
	}
	return out
}

// Len returns the number of distinct positive patterns recorded.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.shots)
}

// Trainer retrains a model offline from the feedback log once enough new
// feedback accumulates, as Section 4.2.1.1 (2) prescribes ("once the
// number of newly achieved feedbacks reaches a certain threshold, the
// update ... can be triggered automatically").
type Trainer struct {
	Threshold int // Due once Log.Pending() >= Threshold; <= 0 means 1
	Options   hmmm.TrainOptions
	// Metrics, when set, receives retrain outcomes and durations. nil
	// disables instrumentation.
	Metrics *TrainerMetrics
}

// TrainerMetrics counts retrain cycles and times them. The server wires
// it to its registry; all fields are nil-safe obs metrics.
type TrainerMetrics struct {
	Retrains *obs.Counter   // completed retrains
	Failures *obs.Counter   // retrains that returned an error
	Seconds  *obs.Histogram // durations of completed retrains
}

// observe records one retrain attempt's outcome.
func (tm *TrainerMetrics) observe(d time.Duration, err error) {
	if tm == nil {
		return
	}
	if err != nil {
		tm.Failures.Inc()
		return
	}
	tm.Retrains.Inc()
	tm.Seconds.ObserveDuration(d)
}

// NewTrainer returns a trainer with the default HMMM training options.
func NewTrainer(threshold int) *Trainer {
	return &Trainer{Threshold: threshold, Options: hmmm.DefaultTrainOptions()}
}

// Due reports whether the pending feedback has reached the threshold.
func (t *Trainer) Due(log *Log) bool {
	threshold := t.Threshold
	if threshold <= 0 {
		threshold = 1
	}
	return log.Pending() >= threshold
}

// Retrain applies the accumulated feedback to the model — the shot level
// per Eqs. (1)-(2) and (4), the video level per Eqs. (5)-(6) — and returns
// the trained model, leaving m untouched: queries keep reading m while
// the new model trains off to the side. The pending counter is NOT reset;
// the caller resets it once the new model is in use, so a failed publish
// leaves the feedback eligible for the next retrain.
func (t *Trainer) Retrain(m *hmmm.Model, log *Log) (*hmmm.Model, error) {
	start := time.Now()
	next, err := m.Train(log.ShotPatterns(), log.VideoPatterns(), t.Options)
	if err != nil {
		err = fmt.Errorf("feedback: %w", err)
	}
	t.Metrics.observe(time.Since(start), err)
	return next, err
}

// SimulatedUser stands in for the paper's human feedback provider: it
// marks a retrieved match positive iff the match exactly satisfies the
// query annotations, flipping each judgment with probability Noise.
type SimulatedUser struct {
	Noise float64
	rng   *xrand.RNG
}

// NewSimulatedUser returns a user with the given judgment noise in [0,1).
func NewSimulatedUser(seed uint64, noise float64) *SimulatedUser {
	return &SimulatedUser{Noise: noise, rng: xrand.New(seed)}
}

// Judge returns the state sequences of the matches the user marks
// positive.
func (u *SimulatedUser) Judge(m *hmmm.Model, q retrieval.Query, matches []retrieval.Match) [][]int {
	var out [][]int
	for _, match := range matches {
		positive := retrieval.ExactMatch(m, match, q)
		if u.Noise > 0 && u.rng.Bool(u.Noise) {
			positive = !positive
		}
		if positive {
			out = append(out, match.States)
		}
	}
	return out
}
