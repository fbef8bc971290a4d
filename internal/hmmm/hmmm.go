// Package hmmm implements the Hierarchical Markov Model Mediator, the
// paper's central contribution: the 8-tuple
//
//	λ = (d, S, F, A, B, Π, P, L)
//
// instantiated at d = 2 levels exactly as Section 4.2 prescribes:
//
//   - level 1: one local MMM per video whose states are that video's
//     annotated shots, with the temporal affinity matrix A1, the globally
//     min-max-normalized feature matrix B1 (Eq. 3), and the initial-state
//     distribution Π1 (Eq. 4);
//   - level 2: one integrated MMM over the videos with co-access affinity
//     A2 (Eqs. 5-6), event-count matrix B2, and Π2;
//   - cross-level: the feature-importance matrix P1,2 (Eqs. 7-10), the
//     per-event mean feature matrix B1' (Eq. 11), and the link-condition
//     matrix L1,2.
//
// The model is a pure data structure plus construction and training rules;
// traversal lives in package retrieval. A model is a value: once built it
// is never mutated. Training (Model.Train) returns a trained copy, and
// growing the archive means building a new model over the union corpus,
// so whatever a retrieval engine derived from a model stays valid for the
// model's lifetime.
package hmmm

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/videodb/hmmm/internal/matrix"
	"github.com/videodb/hmmm/internal/mmm"
	"github.com/videodb/hmmm/internal/par"
	"github.com/videodb/hmmm/internal/videomodel"
)

// State is one level-1 state: an annotated shot. What the model can
// derive is not held here: the video holding state s is Model.VideoOf(s),
// its index within that video's local MMM is s minus the video's first
// state, and its start time is Model.StartMS(s).
type State struct {
	Shot   videomodel.ShotID
	Events []videomodel.Event
}

// HasEvent reports whether the state is annotated with e.
func (s *State) HasEvent(e videomodel.Event) bool {
	for _, ev := range s.Events {
		if ev == e {
			return true
		}
	}
	return false
}

// Model is a two-level HMMM over a video archive.
type Model struct {
	// Level 1 (shot level). States are annotated shots, grouped by video
	// and in temporal order within each video; the global order is video
	// order then time.
	States []State
	B1     *matrix.Dense // N×K normalized visual/audio features (Eq. 3)
	Pi1    *mmm.Pi       // N global initial-state probabilities (Eq. 4): 1/N until training writes them
	LocalA []*mmm.A1     // per-video A1 blocks (Eq. 1 generator plus rewritten rows), indexed like VideoIDs

	// Level 2 (video level).
	VideoIDs []videomodel.VideoID
	A2       *mmm.A2       // M×M relative affinity (Eqs. 5-6): the uniform row plus the rows feedback observed
	B2       *matrix.Dense // M×C event counts (integers, unnormalized)
	Pi2      []float64     // M initial probabilities

	// Cross-level matrices.
	P12     *matrix.Dense // C×K feature importance weights (Eqs. 7-10)
	B1Prime *matrix.Dense // C×K per-event mean features (Eq. 11)

	// Scaler holds the Eq. 3 normalization bounds so new feature vectors
	// (query examples) can be mapped into B1 space.
	Scaler matrix.MinMaxScaler

	// Domain names the event vocabulary the model's concept axis was
	// built over ("soccer", "basketball", ...). The empty string means
	// soccer: every model predating domain stamping was. The store
	// persists it and refuses to serve a model into the wrong domain.
	Domain string

	// Partial marks the model as a by-video restriction of a larger
	// archive (a shard). A shard keeps the parent's parameter values
	// verbatim — renormalizing would perturb the Eq. 12 products and
	// break the bit-identical sharded/unsharded equivalence — so its
	// Π1, Π2, and A2 rows are sub-stochastic: non-negative, summing to
	// at most 1 instead of exactly 1. Validate relaxes exactly those
	// three checks for partial models and nothing else.
	Partial bool

	// offsets[v] is the global state index of video v's first state.
	offsets []int
	// startMS[s] is state s's occurrence time within its video, the
	// temporal order key, in [0, 2³¹).
	startMS []int32
}

// K is the feature dimensionality of the model.
func (m *Model) K() int {
	if m.B1 == nil {
		return 0
	}
	return m.B1.Cols()
}

// NumStates returns the number of level-1 states (annotated shots).
func (m *Model) NumStates() int { return len(m.States) }

// NumVideos returns the number of level-2 states.
func (m *Model) NumVideos() int { return len(m.VideoIDs) }

// NumConcepts returns the number of event concepts C.
func (m *Model) NumConcepts() int {
	if m.B2 == nil {
		return 0
	}
	return m.B2.Cols()
}

// DomainName returns the model's domain, normalizing the legacy empty
// stamp to "soccer".
func (m *Model) DomainName() string {
	if m.Domain == "" {
		return videomodel.Soccer().Name
	}
	return m.Domain
}

// VideoOf returns the index of the video (the level-2 state) holding
// state s: the last video whose first state is at most s.
func (m *Model) VideoOf(s int) int {
	if s < 0 || s >= len(m.States) {
		panic(fmt.Sprintf("hmmm: state %d out of range (%d states)", s, len(m.States)))
	}
	v, _ := slices.BinarySearch(m.offsets, s+1)
	return v - 1
}

// StartMS returns state s's occurrence time within its video.
func (m *Model) StartMS(s int) int { return int(m.startMS[s]) }

// StartTimes returns every state's start time as one column indexed like
// States. The slice is the model's own and must not be modified.
func (m *Model) StartTimes() []int32 { return m.startMS }

// VideoStates returns the global state indices of video videoIdx as a
// half-open range [lo, hi).
func (m *Model) VideoStates(videoIdx int) (lo, hi int) {
	lo = m.offsets[videoIdx]
	if videoIdx+1 < len(m.offsets) {
		hi = m.offsets[videoIdx+1]
	} else {
		hi = len(m.States)
	}
	return lo, hi
}

// BuildOptions tunes model construction.
type BuildOptions struct {
	// LearnP12 applies the Eqs. 8-10 inverse-standard-deviation learning
	// of feature importance from the corpus annotations. When false, P1,2
	// stays at the uniform Eq. 7 initialization.
	LearnP12 bool
	// Domain sets the event vocabulary the concept axis is built over.
	// Nil means the default soccer domain. Build rejects annotations
	// outside the vocabulary — they would silently vanish from B2 and
	// the cross-level matrices otherwise.
	Domain *videomodel.Domain
}

// Build constructs a two-level HMMM from an archive and the raw (pre-
// normalization) feature vectors of its annotated shots. Feature vectors
// must all share one length K >= 1; every annotated shot needs one.
//
// Construction runs in two passes: a cheap serial pass fixes the state
// layout (per-video annotated shot lists, global offsets, K), then the
// per-video work (state collection, B1 row assembly, local A1 blocks, B2
// rows) and the per-concept work (P1,2 learning, B1') fan out over
// GOMAXPROCS goroutines. The built model is bit-identical for every
// GOMAXPROCS: each worker writes only disjoint, preassigned rows and
// slots, and no reduction crosses a worker boundary.
func Build(archive *videomodel.Archive, feats map[videomodel.ShotID][]float64, opts BuildOptions) (*Model, error) {
	if archive == nil || len(archive.Videos) == 0 {
		return nil, errors.New("hmmm: empty archive")
	}
	domain := opts.Domain
	if domain == nil {
		domain = videomodel.Soccer()
	}
	m := &Model{Domain: domain.Name}

	// Pass 1 (serial): fix the state layout. Collect each video's
	// annotated shots in temporal order, assign global offsets and each
	// video's first slot in the shared event array, and determine K from
	// the first annotated shot.
	perVideo := make([][]*videomodel.Shot, len(archive.Videos))
	eventOff := make([]int, len(archive.Videos))
	k := -1
	total, totalEvents := 0, 0
	for vi, v := range archive.Videos {
		m.VideoIDs = append(m.VideoIDs, v.ID)
		m.offsets = append(m.offsets, total)
		eventOff[vi] = totalEvents
		for _, s := range v.Shots {
			if !s.Annotated() {
				continue
			}
			if k == -1 {
				f, ok := feats[s.ID]
				if !ok {
					return nil, fmt.Errorf("hmmm: annotated shot %d has no feature vector", s.ID)
				}
				k = len(f)
				if k == 0 {
					return nil, errors.New("hmmm: zero-length feature vectors")
				}
			}
			perVideo[vi] = append(perVideo[vi], s)
			total++
			totalEvents += len(s.Events)
		}
	}
	if total == 0 {
		return nil, errors.New("hmmm: archive has no annotated shots")
	}

	// Pass 2 (parallel across videos): states, their start times and
	// events, raw B1 rows, local A1 blocks, and B2 rows. Every video
	// writes only its own state range, event range, matrix rows, and
	// error slot, so the fill is order-independent.
	mVideos := len(m.VideoIDs)
	c := domain.NumEvents()
	m.States = make([]State, total)
	m.startMS = make([]int32, total)
	events := make([]videomodel.Event, totalEvents)
	m.LocalA = make([]*mmm.A1, mVideos)
	m.B2 = matrix.NewDense(mVideos, c)
	bb1 := matrix.NewDense(total, k)
	errs := make([]error, mVideos)
	par.For(mVideos, func(vi int) {
		v := archive.Videos[vi]
		for _, s := range v.Shots {
			for _, e := range s.Events {
				if !e.Valid() || e.Index() >= c {
					errs[vi] = fmt.Errorf("hmmm: shot %d annotated with event %d outside the %d-concept %s vocabulary", s.ID, e, c, domain.Name)
					return
				}
			}
		}
		for ci, cnt := range v.EventCountsN(c) {
			m.B2.Set(vi, ci, float64(cnt))
		}
		shots := perVideo[vi]
		if len(shots) == 0 {
			// A video with no annotated shots contributes no level-1
			// states; its local MMM is empty.
			m.LocalA[vi] = new(mmm.A1)
			return
		}
		base, eo := m.offsets[vi], eventOff[vi]
		ne := make([]int, len(shots))
		for li, s := range shots {
			f, ok := feats[s.ID]
			if !ok {
				errs[vi] = fmt.Errorf("hmmm: annotated shot %d has no feature vector", s.ID)
				return
			}
			if len(f) != k {
				errs[vi] = fmt.Errorf("hmmm: shot %d has %d features, want %d", s.ID, len(f), k)
				return
			}
			if s.StartMS < 0 || s.StartMS > math.MaxInt32 {
				errs[vi] = fmt.Errorf("hmmm: shot %d starts at %dms, outside [0, 2^31)", s.ID, s.StartMS)
				return
			}
			ev := events[eo : eo+len(s.Events) : eo+len(s.Events)]
			eo += copy(ev, s.Events)
			m.States[base+li] = State{Shot: s.ID, Events: ev}
			m.startMS[base+li] = int32(s.StartMS)
			copy(bb1.Row(base+li), f)
			ne[li] = s.NE()
		}
		a1, err := mmm.InitTemporalA(ne)
		if err != nil {
			errs[vi] = fmt.Errorf("hmmm: video %d: %w", v.ID, err)
			return
		}
		m.LocalA[vi] = a1
	})
	if err := par.FirstErr(errs); err != nil {
		return nil, err
	}

	// B1: global Eq. 3 min-max normalization across all states, in
	// place over the raw rows.
	m.Scaler.FitTransform(bb1)
	m.B1 = bb1

	// Π1: uniform before any training data exists (Eq. 4 with an empty
	// training set); feedback training reshapes it.
	m.Pi1 = mmm.UniformPi(total)

	// Level 2.
	var err error
	m.A2, err = mmm.BuildAffinityA(nil, mVideos)
	if err != nil {
		return nil, fmt.Errorf("hmmm: building A2: %w", err)
	}
	m.Pi2 = make([]float64, mVideos)
	for i := range m.Pi2 {
		m.Pi2[i] = 1 / float64(mVideos)
	}

	// Cross-level matrices (parallel across concepts).
	m.P12 = matrix.NewDense(c, k)
	m.P12.Fill(1 / float64(k)) // Eq. 7
	posts := m.eventPostings()
	if opts.LearnP12 {
		m.learnP12(posts)
	}
	m.B1Prime = m.computeB1Prime(posts)
	return m, nil
}

// eventPostings returns, per concept index, the ascending global state
// indices annotated with that concept — the shared input of the
// per-concept P1,2 and B1' fills, computed in one pass over the states.
func (m *Model) eventPostings() [][]int {
	posts := make([][]int, m.NumConcepts())
	for i := range m.States {
		for _, e := range m.States[i].Events {
			ci := e.Index()
			if n := len(posts[ci]); n > 0 && posts[ci][n-1] == i {
				continue // duplicate annotation on one shot
			}
			posts[ci] = append(posts[ci], i)
		}
	}
	return posts
}

// learnP12 learns the feature-importance matrix from the annotations via
// Eqs. 8-10: for each event concept, the weight of a feature is
// proportional to the inverse standard deviation of that feature across
// the shots annotated with the event. Concepts with fewer than two
// annotated shots keep the uniform Eq. 7 row. The kernel fans out across
// concepts: each reads shared B1 rows and writes only its own P1,2 row,
// so the result is worker-count independent (the per-row summation order
// never changes).
func (m *Model) learnP12(posts [][]int) {
	k := m.K()
	const minStd = 1e-6 // a zero std would make one weight infinite
	par.For(len(posts), func(ci int) {
		idx := posts[ci]
		if len(idx) < 2 {
			return
		}
		row := m.P12.Row(ci)
		var sum float64
		for f := 0; f < k; f++ {
			var mean float64
			for _, si := range idx {
				mean += m.B1.At(si, f)
			}
			mean /= float64(len(idx))
			var ss float64
			for _, si := range idx {
				d := m.B1.At(si, f) - mean
				ss += float64(d * d)
			}
			std := math.Sqrt(ss / float64(len(idx)))
			if std < minStd {
				std = minStd
			}
			row[f] = 1 / std // Eq. 8
			sum += row[f]
		}
		for f := range row { // Eqs. 9-10
			row[f] /= sum
		}
	})
}

// computeB1Prime builds the Eq. 11 per-event mean feature matrix over the
// normalized B1 rows, one concept (row) per work item. Concepts with no
// annotated shots get a zero row.
func (m *Model) computeB1Prime(posts [][]int) *matrix.Dense {
	c := m.NumConcepts()
	k := m.K()
	bp := matrix.NewDense(c, k)
	par.For(len(posts), func(ci int) {
		idx := posts[ci]
		if len(idx) == 0 {
			return
		}
		row := bp.Row(ci)
		for _, si := range idx {
			for f := 0; f < k; f++ {
				row[f] += m.B1.At(si, f)
			}
		}
		for f := range row {
			row[f] /= float64(len(idx))
		}
	})
	return bp
}

// Validate checks every structural and stochastic invariant of the model.
// For Partial (shard) models the Π1, Π2, and A2 rows are allowed to be
// sub-stochastic — they are verbatim restrictions of a parent model's
// distributions — while every other invariant still holds exactly.
func (m *Model) Validate(tol float64) error {
	if m.NumStates() == 0 {
		return errors.New("hmmm: no states")
	}
	if m.B1 == nil || m.B1.Rows() != m.NumStates() {
		return errors.New("hmmm: B1 shape mismatch")
	}
	if m.Pi1 == nil || m.Pi1.Len() != m.NumStates() {
		return errors.New("hmmm: Pi1 length mismatch")
	}
	if err := m.checkDistribution(m.Pi1.Values(), tol); err != nil {
		return fmt.Errorf("hmmm: Pi1: %w", err)
	}
	if len(m.LocalA) != m.NumVideos() {
		return errors.New("hmmm: LocalA count mismatch")
	}
	for vi, a := range m.LocalA {
		lo, hi := m.VideoStates(vi)
		if a.Rows() != hi-lo {
			return fmt.Errorf("hmmm: video %d local A has %d rows, want %d", vi, a.Rows(), hi-lo)
		}
		if a.Rows() > 0 && !a.IsRowStochastic(tol) {
			return fmt.Errorf("hmmm: video %d local A not row-stochastic", vi)
		}
	}
	if m.A2 == nil || m.A2.Rows() != m.NumVideos() {
		return errors.New("hmmm: A2 invalid")
	}
	if m.Partial {
		if err := subStochasticRows(m.A2, tol); err != nil {
			return fmt.Errorf("hmmm: A2: %w", err)
		}
	} else if !m.A2.IsRowStochastic(tol) {
		return errors.New("hmmm: A2 invalid")
	}
	if len(m.Pi2) != m.NumVideos() {
		return errors.New("hmmm: Pi2 length mismatch")
	}
	if err := m.checkDistribution(m.Pi2, tol); err != nil {
		return fmt.Errorf("hmmm: Pi2: %w", err)
	}
	if m.B2 == nil || m.B2.Rows() != m.NumVideos() {
		return errors.New("hmmm: B2 shape mismatch")
	}
	// B2 entries are event counts: non-negative integers.
	for i := 0; i < m.B2.Rows(); i++ {
		for j, v := range m.B2.Row(i) {
			if !(v >= 0) || v != math.Trunc(v) || math.IsInf(v, 0) {
				return fmt.Errorf("hmmm: B2(%d,%d) = %v is not an event count", i, j, v)
			}
		}
	}
	if m.P12 == nil || m.P12.Rows() != m.NumConcepts() || m.P12.Cols() != m.K() {
		return errors.New("hmmm: P12 shape mismatch")
	}
	if !m.P12.IsRowStochastic(tol) {
		return errors.New("hmmm: P12 rows must sum to 1")
	}
	if m.B1Prime == nil || m.B1Prime.Rows() != m.NumConcepts() || m.B1Prime.Cols() != m.K() {
		return errors.New("hmmm: B1' shape mismatch")
	}
	// B1 entries must be in [0,1] (Eq. 3), and so must B1' entries,
	// Eq. 11 means of them.
	for _, b := range []struct {
		name string
		d    *matrix.Dense
	}{{"B1", m.B1}, {"B1'", m.B1Prime}} {
		for i := 0; i < b.d.Rows(); i++ {
			for j, v := range b.d.Row(i) {
				if !(v >= -tol && v <= 1+tol) {
					return fmt.Errorf("hmmm: %s(%d,%d) = %v outside [0,1]", b.name, i, j, v)
				}
			}
		}
	}
	// Every state starts at a time the column holds, and every event
	// lies on the concept axis: the engine indexes its tables by it.
	if len(m.startMS) != m.NumStates() {
		return errors.New("hmmm: start time count mismatch")
	}
	for s, st := range m.States {
		if ms := m.startMS[s]; ms < 0 {
			return fmt.Errorf("hmmm: state %d starts at %dms, outside [0, 2^31)", s, ms)
		}
		for _, e := range st.Events {
			if !e.Valid() || e.Index() >= m.NumConcepts() {
				return fmt.Errorf("hmmm: state %d annotated with event %d outside the %d-concept axis", s, e, m.NumConcepts())
			}
		}
	}
	return nil
}

// checkDistribution dispatches between the exact and the sub-stochastic
// (Partial model) distribution invariant.
func (m *Model) checkDistribution(p []float64, tol float64) error {
	if m.Partial {
		return subDistribution(p, tol)
	}
	return distribution(p, tol)
}

// distribution and subDistribution write their tests so that NaN fails
// them: a NaN entry is not non-negative, and a NaN sum is not within
// tol of anything.
func distribution(p []float64, tol float64) error {
	sum, err := nonNegativeSum(p)
	if err != nil {
		return err
	}
	if !(math.Abs(sum-1) <= tol) {
		return fmt.Errorf("sums to %v, want 1", sum)
	}
	return nil
}

// subDistribution accepts the restriction of a distribution to a subset
// of its support: non-negative entries whose sum does not exceed 1.
func subDistribution(p []float64, tol float64) error {
	sum, err := nonNegativeSum(p)
	if err != nil {
		return err
	}
	if !(sum <= 1+tol) {
		return fmt.Errorf("sums to %v, want at most 1", sum)
	}
	return nil
}

func nonNegativeSum(p []float64) (float64, error) {
	var sum float64
	for i, v := range p {
		if !(v >= 0) {
			return 0, fmt.Errorf("entry %d = %v, want >= 0", i, v)
		}
		sum += v
	}
	return sum, nil
}

// subStochasticRows checks that every row of a is the restriction of a
// stochastic row: non-negative with sum at most 1.
func subStochasticRows(a *mmm.A2, tol float64) error {
	buf := make([]float64, a.Rows())
	for i := 0; i < a.Rows(); i++ {
		if err := subDistribution(a.Row(i, buf), tol); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
	}
	return nil
}

// StationaryPi1 computes the long-run visit distribution over the level-1
// states: per video, the stationary distribution of its (damped) local A1
// chain, weighted by the video's Π2 mass. It ranks shots by how often the
// trained affinity structure returns to them — an analysis signal and an
// alternative Π1 for heavily trained models.
func (m *Model) StationaryPi1() ([]float64, error) {
	out := make([]float64, m.NumStates())
	var total float64
	for vi := range m.VideoIDs {
		lo, hi := m.VideoStates(vi)
		if lo == hi {
			continue
		}
		pi, err := mmm.Stationary(m.LocalA[vi], mmm.StationaryOptions{})
		if err != nil {
			return nil, fmt.Errorf("hmmm: video %d: %w", m.VideoIDs[vi], err)
		}
		w := m.Pi2[vi]
		for i, p := range pi {
			out[lo+i] = w * p
			total += float64(w * p)
		}
	}
	if total == 0 {
		return nil, errors.New("hmmm: no probability mass in stationary distribution")
	}
	for i := range out {
		out[i] /= total
	}
	return out, nil
}

// MeanA1Entropy returns the mean Shannon entropy (bits) of all local A1
// rows across the model: the concentration diagnostic the learning
// experiments report (training lowers it).
func (m *Model) MeanA1Entropy() float64 {
	var sum float64
	var n int
	for _, a := range m.LocalA {
		n += a.Rows()
		if a.Rows() > 0 {
			sum += float64(mmm.MeanEntropy(a) * float64(a.Rows()))
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
