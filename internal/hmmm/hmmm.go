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

	"github.com/videodb/hmmm/internal/matrix"
	"github.com/videodb/hmmm/internal/mmm"
	"github.com/videodb/hmmm/internal/par"
	"github.com/videodb/hmmm/internal/videomodel"
)

// Levels is the paper's d: the two-level instantiation modeled here.
const Levels = 2

// State is one level-1 state: an annotated shot.
type State struct {
	Shot     videomodel.ShotID
	VideoIdx int // index into Model.VideoIDs (the level-2 state)
	LocalIdx int // index within the video's local MMM
	Events   []videomodel.Event
	StartMS  int // occurrence time within the video (temporal order key)
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
	B1     *matrix.Dense   // N×K normalized visual/audio features (Eq. 3)
	Pi1    []float64       // N global initial-state probabilities (Eq. 4)
	LocalA []*matrix.Dense // per-video A1 blocks, indexed like VideoIDs

	// Level 2 (video level).
	VideoIDs []videomodel.VideoID
	A2       *matrix.Dense // M×M relative affinity (Eqs. 5-6)
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

// GlobalIndex maps a (video, local state) pair to the global state index.
func (m *Model) GlobalIndex(videoIdx, localIdx int) int {
	return m.offsets[videoIdx] + localIdx
}

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

// L12 materializes the link-conditions matrix: L12(v, s) = 1 iff global
// state s belongs to video v (Section 4.2.3.3).
func (m *Model) L12() *matrix.Dense {
	l := matrix.NewDense(m.NumVideos(), m.NumStates())
	for s, st := range m.States {
		l.Set(st.VideoIdx, s, 1)
	}
	return l
}

// BuildOptions tunes model construction.
type BuildOptions struct {
	// LearnP12 applies the Eqs. 8-10 inverse-standard-deviation learning
	// of feature importance from the corpus annotations. When false, P1,2
	// stays at the uniform Eq. 7 initialization.
	LearnP12 bool
	// Workers bounds construction parallelism: the per-video work (state
	// collection, B1 row assembly, local A1 blocks, B2 rows) and the
	// per-concept work (P1,2 learning, B1') fan out over this many
	// goroutines. 0 means GOMAXPROCS; 1 forces the serial path. The
	// built model is bit-identical for every worker count — each worker
	// writes only disjoint, preassigned rows/slots and no reduction
	// crosses a worker boundary.
	Workers int
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
// per-video and per-concept fills fan out over BuildOptions.Workers.
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
	// annotated shots in temporal order, assign global offsets, and
	// determine K from the first annotated shot.
	perVideo := make([][]*videomodel.Shot, len(archive.Videos))
	k := -1
	total := 0
	for vi, v := range archive.Videos {
		m.VideoIDs = append(m.VideoIDs, v.ID)
		m.offsets = append(m.offsets, total)
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
		}
	}
	if total == 0 {
		return nil, errors.New("hmmm: archive has no annotated shots")
	}

	// Pass 2 (parallel across videos): states, raw B1 rows, local A1
	// blocks, and B2 rows. Every video writes only its own state range,
	// matrix rows, and error slot, so the fill is order-independent.
	mVideos := len(m.VideoIDs)
	c := domain.NumEvents()
	m.States = make([]State, total)
	m.LocalA = make([]*matrix.Dense, mVideos)
	m.B2 = matrix.NewDense(mVideos, c)
	bb1 := matrix.NewDense(total, k)
	errs := make([]error, mVideos)
	par.For(opts.Workers, mVideos, func(vi int) {
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
			m.LocalA[vi] = matrix.NewDense(0, 0)
			return
		}
		base := m.offsets[vi]
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
			m.States[base+li] = State{
				Shot:     s.ID,
				VideoIdx: vi,
				LocalIdx: li,
				Events:   append([]videomodel.Event(nil), s.Events...),
				StartMS:  s.StartMS,
			}
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

	// B1: global Eq. 3 min-max normalization across all states.
	m.B1 = m.Scaler.FitTransform(bb1)

	// Π1: uniform before any training data exists (Eq. 4 with an empty
	// training set); feedback training reshapes it.
	m.Pi1 = make([]float64, total)
	for i := range m.Pi1 {
		m.Pi1[i] = 1 / float64(total)
	}

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
		m.learnP12(opts.Workers, posts)
	}
	m.B1Prime = m.computeB1Prime(opts.Workers, posts)
	return m, nil
}

// eventPostings returns, per concept index, the ascending global state
// indices annotated with that concept — the shared input of the
// per-concept P1,2 and B1' fills, computed in one pass over the states.
func (m *Model) eventPostings() [][]int {
	posts := make([][]int, m.NumConcepts())
	for i := range m.States {
		for _, e := range m.States[i].Events {
			if !e.Valid() || e.Index() >= len(posts) {
				continue
			}
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
func (m *Model) learnP12(workers int, posts [][]int) {
	k := m.K()
	const minStd = 1e-6 // a zero std would make one weight infinite
	par.For(workers, len(posts), func(ci int) {
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
				ss += d * d
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
func (m *Model) computeB1Prime(workers int, posts [][]int) *matrix.Dense {
	c := m.NumConcepts()
	k := m.K()
	bp := matrix.NewDense(c, k)
	par.For(workers, len(posts), func(ci int) {
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
	if len(m.Pi1) != m.NumStates() {
		return errors.New("hmmm: Pi1 length mismatch")
	}
	if err := m.checkDistribution(m.Pi1, tol); err != nil {
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
	if m.P12 == nil || m.P12.Rows() != m.NumConcepts() || m.P12.Cols() != m.K() {
		return errors.New("hmmm: P12 shape mismatch")
	}
	if !m.P12.IsRowStochastic(tol) {
		return errors.New("hmmm: P12 rows must sum to 1")
	}
	if m.B1Prime == nil || m.B1Prime.Rows() != m.NumConcepts() || m.B1Prime.Cols() != m.K() {
		return errors.New("hmmm: B1' shape mismatch")
	}
	// B1 entries must be in [0,1] (Eq. 3).
	for i := 0; i < m.B1.Rows(); i++ {
		for j := 0; j < m.B1.Cols(); j++ {
			v := m.B1.At(i, j)
			if v < -tol || v > 1+tol {
				return fmt.Errorf("hmmm: B1(%d,%d) = %v outside [0,1]", i, j, v)
			}
		}
	}
	// Each state's bookkeeping must be consistent.
	for gi, st := range m.States {
		if st.VideoIdx < 0 || st.VideoIdx >= m.NumVideos() {
			return fmt.Errorf("hmmm: state %d has video index %d", gi, st.VideoIdx)
		}
		if m.GlobalIndex(st.VideoIdx, st.LocalIdx) != gi {
			return fmt.Errorf("hmmm: state %d index bookkeeping broken", gi)
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

func distribution(p []float64, tol float64) error {
	var sum float64
	for i, v := range p {
		if v < 0 {
			return fmt.Errorf("entry %d = %v is negative", i, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > tol {
		return fmt.Errorf("sums to %v, want 1", sum)
	}
	return nil
}

// subDistribution accepts the restriction of a distribution to a subset
// of its support: non-negative entries whose sum does not exceed 1.
func subDistribution(p []float64, tol float64) error {
	var sum float64
	for i, v := range p {
		if v < 0 {
			return fmt.Errorf("entry %d = %v is negative", i, v)
		}
		sum += v
	}
	if sum > 1+tol {
		return fmt.Errorf("sums to %v, want at most 1", sum)
	}
	return nil
}

// subStochasticRows checks that every row of a is the restriction of a
// stochastic row: non-negative with sum at most 1.
func subStochasticRows(a *matrix.Dense, tol float64) error {
	for i := 0; i < a.Rows(); i++ {
		if err := subDistribution(a.Row(i), tol); err != nil {
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
			total += w * p
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
		for i := 0; i < a.Rows(); i++ {
			n++
		}
		if a.Rows() > 0 {
			sum += mmm.MeanEntropy(a) * float64(a.Rows())
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
