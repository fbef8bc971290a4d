// Package retrievaltest provides the shared differential-testing
// harness for retrieval correctness: a seeded-random small-model
// generator, a deterministic query corpus, the exhaustive brute-force
// oracle (re-exported from retrieval.BruteForce), and bit-identical
// result comparators.
//
// Both the retrieval suite and the shard scatter-gather suite assert
// against the same oracle through this package, so the two pipelines
// are pinned to one ground truth.
//
// Two comparison strengths are offered, matching what the engine
// actually guarantees:
//
//   - RequireSameMatches: full bit-identity (states, shots, videos,
//     weights, scores, order). Holds between any two exact pipelines —
//     e.g. shard.Group vs the single engine for any shard count — and
//     between the engine and the oracle on single-step queries with
//     Beam >= TopK (no path can collide, no per-video beam truncation
//     below the global K).
//   - RequireOracleConsistent: the oracle's exhaustive ranking,
//     restricted to the sequences the engine materialized, must equal
//     the engine's ranking bit for bit. On multi-step queries the
//     engine's Viterbi relaxation keeps one best-weight path per
//     (stage, state), so its result is a subset of the oracle's
//     enumeration; this check still verifies every returned score,
//     weight vector, and the relative order through the oracle's
//     independent scoring path.
package retrievaltest

import (
	"slices"
	"strconv"
	"testing"

	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/videomodel"
	"github.com/videodb/hmmm/internal/xrand"
)

// Config sizes a seeded-random model. The zero value of every field is
// replaced with a small default, so Config{Seed: n} alone is valid.
type Config struct {
	Seed       uint64
	Videos     int     // number of videos (default 4)
	MaxShots   int     // max shots per video, >= 1 (default 12)
	Events     int     // distinct event concepts drawn (default 3)
	FeatureDim int     // feature vector length (default 4)
	Annotate   float64 // per-shot annotation probability (default 0.7)
	LearnP12   bool    // apply the Eqs. 8-10 feature-importance learning
	// Domain selects the event vocabulary the model is built over (nil =
	// soccer). Events is clamped to the domain's vocabulary size, and the
	// built model carries the domain's stamp — so every differential gate
	// in the tree can be re-run per domain by varying only this field.
	Domain *videomodel.Domain
}

func (c Config) withDefaults() Config {
	if c.Domain == nil {
		c.Domain = videomodel.Soccer()
	}
	if c.Videos <= 0 {
		c.Videos = 4
	}
	if c.MaxShots <= 0 {
		c.MaxShots = 12
	}
	if c.Events <= 0 {
		c.Events = 3
	}
	if c.Events > c.Domain.NumEvents() {
		c.Events = c.Domain.NumEvents()
	}
	if c.FeatureDim <= 0 {
		c.FeatureDim = 4
	}
	if c.Annotate <= 0 {
		c.Annotate = 0.7
	}
	return c
}

// RandomModel builds a deterministic pseudo-random model: cfg.Videos
// videos of up to cfg.MaxShots shots, each shot annotated with
// probability cfg.Annotate by one or two of the first cfg.Events
// concepts, with random feature vectors. The same Config always yields
// the same model. Videos may end up with no annotated shots (empty
// local MMMs), which is exactly the irregularity the differential
// suites want to cover.
func RandomModel(tb testing.TB, cfg Config) *hmmm.Model {
	tb.Helper()
	cfg = cfg.withDefaults()
	rng := xrand.New(cfg.Seed*2654435761 + 1)
	events := cfg.Domain.AllEvents()[:cfg.Events]

	feats := make(map[videomodel.ShotID][]float64)
	videos := make([]*videomodel.Video, cfg.Videos)
	sid := videomodel.ShotID(0)
	annotatedTotal := 0
	for vi := range videos {
		v := &videomodel.Video{ID: videomodel.VideoID(vi + 1)}
		nShots := 1 + rng.Intn(cfg.MaxShots)
		t := 0
		for i := 0; i < nShots; i++ {
			dur := 500 + rng.Intn(4500)
			s := &videomodel.Shot{
				ID: sid, Video: v.ID, Index: i,
				StartMS: t, EndMS: t + dur,
			}
			sid++
			t += dur
			if rng.Float64() < cfg.Annotate {
				s.Events = append(s.Events, events[rng.Intn(len(events))])
				if rng.Bool(0.3) {
					alt := events[rng.Intn(len(events))]
					if !s.HasEvent(alt) {
						s.Events = append(s.Events, alt)
					}
				}
				annotatedTotal++
			}
			v.Shots = append(v.Shots, s)
		}
		videos[vi] = v
	}
	if annotatedTotal == 0 {
		// hmmm.Build requires at least one annotated shot.
		videos[0].Shots[0].Events = []videomodel.Event{events[0]}
	}
	for _, v := range videos {
		for _, s := range v.Shots {
			if s.Annotated() {
				f := make([]float64, cfg.FeatureDim)
				for i := range f {
					f[i] = rng.Float64()
				}
				feats[s.ID] = f
			}
		}
	}

	a, err := videomodel.NewArchive(videos)
	if err != nil {
		tb.Fatalf("retrievaltest: archive: %v", err)
	}
	m, err := hmmm.Build(a, feats, hmmm.BuildOptions{LearnP12: cfg.LearnP12, Domain: cfg.Domain})
	if err != nil {
		tb.Fatalf("retrievaltest: build: %v", err)
	}
	return m
}

// Domains returns the built-in domain specs in deterministic order: the
// axis the cross-domain differential suites iterate over. Soccer comes
// first so a suite's first subtest reproduces the historical
// single-domain behavior exactly.
func Domains() []*videomodel.Domain {
	return []*videomodel.Domain{videomodel.Soccer(), videomodel.Basketball(), videomodel.News()}
}

// Queries returns a deterministic query corpus for m covering the
// shapes retrieval distinguishes: single-step, multi-step, conjunction-
// free alternating steps, gap-constrained steps, and a video-scoped
// query. Only events that actually annotate a state appear, so every
// query has a non-empty candidate space somewhere.
func Queries(m *hmmm.Model) []retrieval.Query {
	present := PresentEvents(m)
	if len(present) == 0 {
		return nil
	}
	e0 := present[0]
	e1 := present[len(present)-1]
	scoped := retrieval.NewQuery(e0)
	scoped.Scope = &retrieval.Scope{Video: m.VideoIDs[0]}
	return []retrieval.Query{
		retrieval.NewQuery(e0),
		retrieval.NewQuery(e1),
		retrieval.NewQuery(e0, e1),
		retrieval.NewQuery(e0, e1, e0),
		{Steps: []retrieval.Step{
			{Events: []videomodel.Event{e0}},
			{Events: []videomodel.Event{e1}, MaxGapMS: 30000},
		}},
		scoped,
	}
}

// PresentEvents lists the events of m's domain that annotate at least
// one state, in vocabulary order.
func PresentEvents(m *hmmm.Model) []videomodel.Event {
	d, ok := videomodel.DomainByName(m.Domain)
	if !ok {
		d = videomodel.Soccer()
	}
	var present []videomodel.Event
	for _, e := range d.AllEvents() {
		for i := range m.States {
			if m.States[i].HasEvent(e) {
				present = append(present, e)
				break
			}
		}
	}
	return present
}

// NegationQueries returns a deterministic corpus of negated-step
// queries over m's present events: single-step pure exclusion, a
// negated conjunction, negation on the first and on a later step of a
// multi-step pattern, and a gap-constrained negated step. Every query
// keeps at least one positive event per step (the grammar's rule), so
// the corpus is valid for every pipeline and for the brute-force
// oracle.
func NegationQueries(m *hmmm.Model) []retrieval.Query {
	present := PresentEvents(m)
	if len(present) < 2 {
		return nil
	}
	e0 := present[0]
	e1 := present[1]
	e2 := present[len(present)-1] // may equal e1 on 2-event models; still valid
	qs := []retrieval.Query{
		{Steps: []retrieval.Step{
			{Events: []videomodel.Event{e0}, Not: []videomodel.Event{e1}},
		}},
		{Steps: []retrieval.Step{
			{Events: []videomodel.Event{e1}, Not: []videomodel.Event{e0}},
		}},
		{Steps: []retrieval.Step{
			{Events: []videomodel.Event{e0}, Not: []videomodel.Event{e1}},
			{Events: []videomodel.Event{e1}},
		}},
		{Steps: []retrieval.Step{
			{Events: []videomodel.Event{e0}},
			{Events: []videomodel.Event{e1}, Not: []videomodel.Event{e0}},
		}},
		{Steps: []retrieval.Step{
			{Events: []videomodel.Event{e0}, Not: []videomodel.Event{e1}},
			{Events: []videomodel.Event{e2}, Not: []videomodel.Event{e0}, MaxGapMS: 30000},
		}},
	}
	if e2 != e0 && e2 != e1 {
		qs = append(qs, retrieval.Query{Steps: []retrieval.Step{
			{Events: []videomodel.Event{e0}, Not: []videomodel.Event{e1, e2}},
		}})
	}
	return qs
}

// SingleStep reports whether q has exactly one step — the shape for
// which the engine (with Beam >= TopK) is provably exhaustive and
// RequireSameMatches against the oracle applies.
func SingleStep(q retrieval.Query) bool { return len(q.Steps) == 1 }

// Oracle runs the exhaustive brute-force enumerator (the Eqs. 12-15
// scorer over every annotation-consistent sequence) and returns its
// ranking truncated to topK. It is the ground truth for AnnotatedOnly
// retrieval without cross-video hops.
func Oracle(tb testing.TB, m *hmmm.Model, q retrieval.Query, topK int) *retrieval.Result {
	tb.Helper()
	res, err := retrieval.BruteForce(m, q, topK)
	if err != nil {
		tb.Fatalf("retrievaltest: oracle: %v", err)
	}
	return res
}

// OracleLimit is a topK large enough that the oracle never truncates on
// the models this package generates: comparisons that restrict the
// oracle list to the engine's sequences need the full enumeration.
const OracleLimit = 1 << 20

// Lift shifts the state ids of a child's ranking by offset, in place:
// the oracle side of a gather's offset lift (a shard's or a delta's
// local ids into its parent's id space).
func Lift(ms []retrieval.Match, offset int) {
	for i := range ms {
		for j := range ms[i].States {
			ms[i].States[j] += offset
		}
	}
}

// RequireSameMatches asserts two rankings are bit-identical: same
// length, and per rank the same states, shots, videos, weights, and
// score — no tolerance anywhere.
func RequireSameMatches(tb testing.TB, label string, want, got []retrieval.Match) {
	tb.Helper()
	if len(want) != len(got) {
		tb.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for i := range want {
		requireSameMatch(tb, label, i, want[i], got[i])
	}
}

func requireSameMatch(tb testing.TB, label string, rank int, want, got retrieval.Match) {
	tb.Helper()
	if !slices.Equal(want.States, got.States) {
		tb.Fatalf("%s: rank %d states = %v, want %v", label, rank, got.States, want.States)
	}
	if !slices.Equal(want.Shots, got.Shots) {
		tb.Fatalf("%s: rank %d shots = %v, want %v", label, rank, got.Shots, want.Shots)
	}
	if !slices.Equal(want.Videos, got.Videos) {
		tb.Fatalf("%s: rank %d videos = %v, want %v", label, rank, got.Videos, want.Videos)
	}
	if !slices.Equal(want.Weights, got.Weights) {
		tb.Fatalf("%s: rank %d weights = %v, want %v (bitwise)", label, rank, got.Weights, want.Weights)
	}
	if want.Score != got.Score {
		tb.Fatalf("%s: rank %d score = %v, want %v (bitwise)", label, rank, got.Score, want.Score)
	}
}

// RequireOracleConsistent asserts that got is the oracle's ranking
// restricted to got's own state sequences: every returned sequence
// appears in the oracle's full enumeration with a bit-identical score
// and weight vector, and the oracle's independent sort puts the shared
// sequences in exactly got's order. oracle must be computed with
// OracleLimit so nothing got returned was truncated away.
func RequireOracleConsistent(tb testing.TB, label string, oracle *retrieval.Result, got []retrieval.Match) {
	tb.Helper()
	keep := make(map[string]bool, len(got))
	for _, m := range got {
		keep[key(m.States)] = true
	}
	var filtered []retrieval.Match
	for _, m := range oracle.Matches {
		if keep[key(m.States)] {
			filtered = append(filtered, m)
		}
	}
	if len(filtered) != len(got) {
		tb.Fatalf("%s: oracle contains %d of the %d returned sequences", label, len(filtered), len(got))
	}
	for i := range got {
		requireSameMatch(tb, label+" (oracle order)", i, filtered[i], got[i])
	}
}

func key(states []int) string {
	b := make([]byte, 0, len(states)*3)
	for _, s := range states {
		b = strconv.AppendInt(b, int64(s), 10)
		b = append(b, ',')
	}
	return string(b)
}

// RecallAtK returns the fraction of want's top-k state sequences that
// appear anywhere in got's top-k: the quality gate for approximate
// (coarse→fine) retrieval against the exact ranking. An empty want
// top-k counts as perfect recall (there was nothing to miss).
func RecallAtK(want, got []retrieval.Match, k int) float64 {
	if k < len(want) {
		want = want[:k]
	}
	if k < len(got) {
		got = got[:k]
	}
	if len(want) == 0 {
		return 1
	}
	have := make(map[string]bool, len(got))
	for _, m := range got {
		have[key(m.States)] = true
	}
	hits := 0
	for _, m := range want {
		if have[key(m.States)] {
			hits++
		}
	}
	return float64(hits) / float64(len(want))
}

// RecallStats aggregates RecallAtK over a query corpus: Hits/Wanted is
// the corpus-level recall (micro-average), Min the worst single query.
type RecallStats struct {
	Hits, Wanted int
	Min          float64
	Queries      int
}

// Observe folds one query's exact-vs-approximate top-k pair into the
// stats.
func (rs *RecallStats) Observe(want, got []retrieval.Match, k int) {
	if k < len(want) {
		want = want[:k]
	}
	r := RecallAtK(want, got, k)
	rs.Hits += int(float64(r*float64(len(want))) + 0.5)
	rs.Wanted += len(want)
	if rs.Queries == 0 || r < rs.Min {
		rs.Min = r
	}
	rs.Queries++
}

// Recall returns the corpus-level recall; 1 when nothing was wanted.
func (rs *RecallStats) Recall() float64 {
	if rs.Wanted == 0 {
		return 1
	}
	return float64(rs.Hits) / float64(rs.Wanted)
}
