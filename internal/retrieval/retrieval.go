// Package retrieval implements the paper's Section-5 temporal pattern
// retrieval process over an HMMM: the Figure-2 nine-step algorithm, the
// Figure-3 lattice traversal (including cross-video continuation via A2),
// the Eq. 12-13 edge weights, the Eq. 14 similarity function, and the
// Eq. 15 pattern score, plus an exhaustive baseline used by the
// evaluation to quantify the paper's "lower computational costs" claim.
// Exact annotation-only search visits videos in the order of a certified
// per-video bound on Eq. 15 and stops once no remaining video can reach
// the K-th best score (bound.go): the exhaustive ranking at a fraction of
// the lattice work.
//
// # Query execution path
//
// The engine is built once per model and reused across queries. Four
// derived caches make the hot path cheap, each laid out the way the
// lattice reads it: a CSR inverted event index (one flat postings array
// addressed by video × concept offsets) with a packed start-time column
// beside it, a dense concept-major similarity table holding every Eq. 14
// sim(s, e) value — a posting list walks one concept over ascending
// states, so its lookups share cache lines — compact per-video bound
// tables for certified pruning, and a memo of the Step-2 Π2/A2 video
// orders the modes that visit in affinity order use, which depend only
// on the first step's event set and the model generation. The index, the
// table and the bound tables are computed at NewEngine time; the memo
// fills on demand and charges the stored edge count on a hit, so Cost
// never depends on cache state. During retrieval the lattice runs on a
// pooled arena — cells are indices into a reusable slab, Viterbi
// relaxation is a dense per-state slot array, and candidate/stage/
// visit-queue scratch is recycled — so a Retrieve performs no per-edge
// heap allocation. See DESIGN.md §"Query
// execution path" for cache lifetimes and invalidation rules.
package retrieval

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/index"
	"github.com/videodb/hmmm/internal/obs"
	"github.com/videodb/hmmm/internal/par"
	"github.com/videodb/hmmm/internal/videomodel"
)

// Step is one position of a temporal pattern: the conjunction of event
// concepts a single shot must exhibit, plus optional temporal-gap
// constraints against the previous step's shot. The paper's Section-3
// example query starts with a shot that is both a free kick and a goal —
// a two-event step; gap constraints extend the temporal relations of the
// authors' companion query model (ref. [8]).
type Step struct {
	Events []videomodel.Event
	// Not lists negated events (MATN "!event" atoms): a shot carrying
	// any of them cannot satisfy the step. Negation only filters the
	// candidate set — scoring (Eq. 14 similarity, Eq. 15 product) is
	// computed from the positive events alone — so a step must also
	// carry at least one positive event.
	Not []videomodel.Event
	// MinGapMS / MaxGapMS bound the start-time distance (milliseconds)
	// from the previous step's shot, within the same video. Zero means
	// unconstrained. A step with MaxGapMS > 0 cannot be satisfied by a
	// cross-video hop (different videos have unrelated timelines).
	MinGapMS int
	MaxGapMS int
}

// gapOK reports whether a transition from a shot starting at prevMS to one
// starting at curMS satisfies the step's gap constraints.
func (st Step) gapOK(prevMS, curMS int) bool {
	gap := curMS - prevMS
	if st.MinGapMS > 0 && gap < st.MinGapMS {
		return false
	}
	if st.MaxGapMS > 0 && gap > st.MaxGapMS {
		return false
	}
	return true
}

// Scope restricts a query to part of the archive: a single video and/or
// a start-time window within each searched video.
type Scope struct {
	// Video, when non-zero, restricts the search to that video (cross-
	// video hops are disabled).
	Video videomodel.VideoID
	// FromMS / ToMS bound the shot start times considered; ToMS 0 means
	// unbounded.
	FromMS, ToMS int
}

// contains reports whether a shot starting at startMS falls in the scope
// window.
func (sc *Scope) contains(startMS int) bool {
	if sc == nil {
		return true
	}
	if startMS < sc.FromMS {
		return false
	}
	if sc.ToMS > 0 && startMS >= sc.ToMS {
		return false
	}
	return true
}

// Query is a temporal event pattern R = {e1, ..., eC} sorted by temporal
// relationship (Section 5). Events is the common single-event-per-step
// form; Steps, when non-empty, takes precedence and allows conjunction
// steps. Scope, when non-nil, restricts where the pattern may match.
type Query struct {
	Events []videomodel.Event
	Steps  []Step
	Scope  *Scope
}

// NewQuery builds a single-event-per-step query.
func NewQuery(events ...videomodel.Event) Query {
	return Query{Events: events}
}

// steps returns the normalized step sequence.
func (q Query) steps() []Step {
	if len(q.Steps) > 0 {
		return q.Steps
	}
	out := make([]Step, len(q.Events))
	for i, e := range q.Events {
		out[i] = Step{Events: []videomodel.Event{e}}
	}
	return out
}

// Len returns the number of steps C.
func (q Query) Len() int {
	if len(q.Steps) > 0 {
		return len(q.Steps)
	}
	return len(q.Events)
}

// Validate checks that the query is non-empty and every event is a real
// concept.
func (q Query) Validate() error {
	steps := q.steps()
	if len(steps) == 0 {
		return errors.New("retrieval: empty query pattern")
	}
	for i, st := range steps {
		if len(st.Events) == 0 {
			return fmt.Errorf("retrieval: query step %d has no events", i)
		}
		for _, e := range st.Events {
			if !e.Valid() {
				return fmt.Errorf("retrieval: query step %d has invalid event %v", i, e)
			}
		}
		for _, e := range st.Not {
			if !e.Valid() {
				return fmt.Errorf("retrieval: query step %d has invalid negated event %v", i, e)
			}
			for _, p := range st.Events {
				if p == e {
					return fmt.Errorf("retrieval: query step %d both requires and negates event %v", i, e)
				}
			}
		}
		if st.MinGapMS < 0 || st.MaxGapMS < 0 {
			return fmt.Errorf("retrieval: query step %d has negative gap constraint", i)
		}
		if st.MaxGapMS > 0 && st.MinGapMS > st.MaxGapMS {
			return fmt.Errorf("retrieval: query step %d has min gap %dms > max gap %dms", i, st.MinGapMS, st.MaxGapMS)
		}
		if i == 0 && (st.MinGapMS > 0 || st.MaxGapMS > 0) {
			return fmt.Errorf("retrieval: first query step cannot carry a gap constraint")
		}
	}
	if sc := q.Scope; sc != nil {
		if sc.FromMS < 0 || sc.ToMS < 0 {
			return errors.New("retrieval: negative scope bound")
		}
		if sc.ToMS > 0 && sc.FromMS >= sc.ToMS {
			return fmt.Errorf("retrieval: empty scope window [%d, %d)", sc.FromMS, sc.ToMS)
		}
	}
	return nil
}

// validateFor extends Validate with the model-relative bound: every
// positive or negated event must address one of the model's c concepts.
// Valid() alone only checks the MaxEvents envelope — a basketball event
// is a valid Event but out of vocabulary for an 8-concept soccer model,
// and letting it through would index past B2's columns.
func (q Query) validateFor(c int) error {
	if err := q.Validate(); err != nil {
		return err
	}
	for i, st := range q.steps() {
		for _, e := range st.Events {
			if e.Index() >= c {
				return fmt.Errorf("retrieval: query step %d event %v outside the model's %d-concept vocabulary", i, e, c)
			}
		}
		for _, e := range st.Not {
			if e.Index() >= c {
				return fmt.Errorf("retrieval: query step %d negated event %v outside the model's %d-concept vocabulary", i, e, c)
			}
		}
	}
	return nil
}

// stateExcluded reports whether a model state carries any of the step's
// negated events.
func stateExcluded(st *hmmm.State, step Step) bool {
	for _, e := range step.Not {
		if st.HasEvent(e) {
			return true
		}
	}
	return false
}

// stateHasStep reports whether a model state is annotated with every
// positive event of the step and none of the negated ones. This single
// predicate is the negation compile rule's whole surface: the lattice,
// the brute-force oracle, and GroundTruthCount all gate on it, which is
// what keeps them exactly equal under negation.
func stateHasStep(st *hmmm.State, step Step) bool {
	if stateExcluded(st, step) {
		return false
	}
	for _, e := range step.Events {
		if !st.HasEvent(e) {
			return false
		}
	}
	return true
}

// Match is one candidate video shot sequence Q_k with its score SS(R, Q_k).
type Match struct {
	States  []int                // global state indices, one per query event
	Shots   []videomodel.ShotID  // the corresponding shots
	Videos  []videomodel.VideoID // video of each step (patterns may span videos)
	Weights []float64            // w_j edge weights (Eqs. 12-13)
	Score   float64              // SS (Eq. 15)
}

// Cost counts the work a retrieval performed; the X1 experiment compares
// these between the HMMM traversal and the exhaustive baseline.
type Cost struct {
	SimEvals   int // Eq. 14 similarity evaluations (table lookups count too)
	EdgeEvals  int // state-transition edges considered
	VideosSeen int // level-2 states expanded
	// Truncated reports that the request context expired (deadline or
	// client disconnect) before the traversal finished: the matches are a
	// valid ranking of what was searched, not of the whole archive.
	Truncated bool
	// DegradedShards counts shards whose ranking is missing from this
	// result because they stayed unreachable past the retry budget
	// (network-distributed serving only; always zero in-process).
	// DegradedShards > 0 implies Truncated.
	DegradedShards int
}

// Add accumulates another cost counter into c (scatter-gather layers
// sum per-member work into one aggregate).
func (c *Cost) Add(o Cost) { c.add(o) }

// add accumulates another cost counter into c.
func (c *Cost) add(o Cost) {
	c.SimEvals += o.SimEvals
	c.EdgeEvals += o.EdgeEvals
	c.VideosSeen += o.VideosSeen
	c.Truncated = c.Truncated || o.Truncated
	c.DegradedShards += o.DegradedShards
}

// Result is a ranked retrieval outcome.
type Result struct {
	Matches []Match // sorted by Score descending
	Cost    Cost
}

// Options tunes the engine.
type Options struct {
	// TopK bounds the number of returned matches; 0 means DefaultTopK.
	TopK int
	// Beam is the number of alternative lattice cells kept per stage and
	// the number of complete paths returned per video. Beam 1 is the
	// paper's literal greedy "always traverse the most optimal path";
	// larger beams trade a little cost for robustness against locally
	// attractive but non-continuable states. 0 means DefaultBeam.
	Beam int
	// CrossVideo allows a pattern to continue in another video (selected
	// by A2 affinity and B2 feature check) when the current video has no
	// further matching shot — the Figure-3 "end of one video" rule.
	CrossVideo bool
	// SimEpsilon floors the Eq. 14 denominator B1'(e, f): features whose
	// per-event mean is below it are skipped ("non-zero features").
	SimEpsilon float64
	// AnnotatedOnly restricts step candidates to states annotated with
	// the sought event. When false, unannotated states compete purely by
	// feature similarity ("or similar to event e_j", Step 3).
	AnnotatedOnly bool
	// BuildWorkers bounds the parallelism of the derived-cache builds
	// (the dense Eq. 14 similarity table and the inverted event index)
	// at NewEngine / WithOptions time. 0 means GOMAXPROCS;
	// 1 forces serial builds. Cache contents are bit-identical for every
	// worker count.
	BuildWorkers int
	// ScratchArenas caps the engine's shared free-list of lattice search
	// arenas. Concurrent queries against the same snapshot draw
	// sized-once scratch from this bounded pool instead of allocating
	// per request; when more than ScratchArenas searches overlap, the
	// excess allocate fresh arenas that are discarded on release, so
	// steady-state memory stays flat at pool-cap × working-set no matter
	// how hard the server is hammered. 0 means DefaultScratchArenas
	// (2×GOMAXPROCS, floor 4). Arenas are pure scratch: the pool size
	// never affects results. Pool traffic is observable through the
	// Metrics arena counters.
	ScratchArenas int
	// Tracer, when non-nil, receives TraceEvent s during retrieval: the
	// EXPLAIN ANALYZE view of the traversal.
	Tracer Tracer
	// StopAfterMatches stops expanding further videos once 3×TopK matches
	// have been collected (a margin that keeps the final top-K ranking
	// close to exhaustive). Videos are visited in Π2/A2 affinity order
	// (most promising first), so this is the paper's "traverse the right
	// path ... with lower computational costs" mode; the returned set can
	// miss high-scoring patterns hiding in low-affinity videos.
	StopAfterMatches bool
	// CoarseCandidates, when positive, enables the coarse→fine two-stage
	// pipeline: the compressed internal/index prefilter ranks videos by
	// a heuristic proxy score (per-concept max Π1·sim entry factors
	// chained through per-video max A1·sim transition tables) and the
	// exact lattice runs only on the survivors, in the usual greedy
	// Π2/A2 order. The value is a per-step budget: a k-step pattern keeps
	// up to k×CoarseCandidates videos, because the proxy's slack
	// compounds with every transition and longer patterns need
	// proportionally more headroom to keep recall.
	// 0 (the default) is exact search, which prunes only with the
	// certified bound (see bound.go) and returns the exhaustive ranking.
	// When the limit covers the whole candidate pool no pruning happens
	// and results stay bit-identical too; with real pruning the ranking
	// is the exact engine's restricted to the surviving videos — scores
	// are never approximated, only the searched set shrinks (recall@10
	// >= 0.95 on the retrievaltest corpora; see the recall harness).
	// Queries scoped to a single video bypass the prefilter entirely.
	CoarseCandidates int
	// NoSimCache disables the engine's precomputed sim(s, e) table and
	// recomputes Eq. 14 from the raw B1/B1'/P12 rows on every evaluation.
	// The cached and uncached paths produce bit-identical scores; the
	// escape hatch exists for memory-constrained deployments (the table
	// is NumConcepts × NumStates float64s, concept-major) and for
	// verification tests. The event index and the video-order memo are
	// unaffected.
	NoSimCache bool
	// Metrics, when non-nil, receives per-retrieval observations (query
	// count and latency, sim-cache hits/misses, edges relaxed, videos
	// expanded, truncations, per-stage timings). Recording happens once
	// per Retrieve from the accumulated Cost counters — the lattice hot
	// loop stays atomics-free — so the overhead is a few counter adds
	// and three clock reads per query.
	Metrics *Metrics
	// Trace, when non-nil, collects per-stage spans ("order", "search",
	// "rank") for this retrieval: the timing generalization of Tracer's
	// event stream, and the raw material of the server's slow-query log.
	// Safe to share across the alternation branches of one request; each
	// branch appends its own spans.
	Trace *obs.Trace
}

// Default engine parameters.
const (
	DefaultTopK       = 10
	DefaultBeam       = 4
	DefaultSimEpsilon = 1e-9
)

func (o Options) withDefaults() Options {
	if o.TopK <= 0 {
		o.TopK = DefaultTopK
	}
	if o.Beam <= 0 {
		o.Beam = DefaultBeam
	}
	if o.SimEpsilon <= 0 {
		o.SimEpsilon = DefaultSimEpsilon
	}
	return o
}

// Engine retrieves temporal patterns from an HMMM.
type Engine struct {
	m    *hmmm.Model
	opts Options
	// shared holds the read-only derived caches (event index, similarity
	// table, arena pool). Engines derived via WithOptions share it.
	shared *engineShared
}

// engineShared bundles the caches that depend only on the model and the
// cache-affecting options (SimEpsilon, NoSimCache), not on per-query
// tuning. Everything but the order memo and the arena free list is
// immutable after construction, and so is the model it is derived from,
// so none of it can go stale.
type engineShared struct {
	// postings / postOff are the CSR inverted event index behind Step 3's
	// candidate lookups: the ascending global state indices of video vi
	// annotated with concept ci are
	// postings[postOff[vi*concepts+ci]:postOff[vi*concepts+ci+1]], so one
	// video's lists are contiguous and a stage reads a few cache lines.
	postings []int32
	postOff  []int32
	// startMS[s] is States[s].StartMS packed beside the postings; only
	// scope windows and gap constraints read it.
	startMS []int32
	// sim is the dense Eq. 14 table, concept-major: sim(s, e) lives at
	// sim[e.Index()*states+s], so the lookups of one posting list stay
	// within one concept's row. nil when Options.NoSimCache is set.
	sim      []float64
	states   int
	concepts int
	// coarse is the candidate-generation prefilter; nil unless
	// Options.CoarseCandidates > 0.
	coarse *index.Coarse
	// bound holds the certified per-video score bounds exact search prunes
	// with (see bound.go); nil means the engine never prunes.
	bound *bounds
	// nVideos / maxLocal size the pooled search arenas.
	nVideos  int
	maxLocal int
	// orders memoizes the exact-mode Step-2 video orders; see orderMemo.
	orders orderMemo
	// arenas is a bounded free list of search scratch: a buffered channel
	// holding idle arenas. Unlike sync.Pool it is never drained by GC and
	// never grows past its capacity (Options.ScratchArenas), so the
	// steady-state scratch footprint of a saturated server is a fixed,
	// known quantity. Releases beyond capacity drop the arena for the GC
	// to reclaim — a counted event, so a chronically undersized pool is
	// visible in metrics rather than silent re-allocation churn.
	arenas chan *arena
}

// posting returns the ascending global state indices of video vi
// annotated with concept ci. The slice aliases the shared index: callers
// must not write through it.
func (sh *engineShared) posting(vi, ci int) []int32 {
	k := vi*sh.concepts + ci
	return sh.postings[sh.postOff[k]:sh.postOff[k+1]]
}

// stepPosting returns the shortest posting list among the step's positive
// events in video vi: the candidate superset a conjunction is filtered
// from, and the length the work estimates count.
func (sh *engineShared) stepPosting(vi int, step Step) []int32 {
	posting := sh.posting(vi, step.Events[0].Index())
	for _, ev := range step.Events[1:] {
		if alt := sh.posting(vi, ev.Index()); len(alt) < len(posting) {
			posting = alt
		}
	}
	return posting
}

// maxMemoOrders bounds the order memo's entry count. A key is a first
// step's event set plus AnnotatedOnly, so real traffic uses a few entries
// per concept; an adversarial stream of distinct conjunctions costs one
// drop-all per maxMemoOrders misses and never more than
// maxMemoOrders × NumVideos ints of memory.
const maxMemoOrders = 64

// orderMemo caches videoOrder's exact-mode result. The Π2/A2 greedy walk
// depends only on the first step's positive event set (the B2 check),
// AnnotatedOnly (the trailing non-candidate append), and the model's
// B2/Π2/A2, which never change, so an entry stays valid for the memo's
// lifetime. An entry stores the walk's edge evaluations beside the order:
// a hit charges them to the query's Cost, keeping Cost a function of
// (model, query, options) and never of cache state.
type orderMemo struct {
	mu      sync.Mutex
	entries map[orderKey]orderEntry
}

type orderKey struct {
	events        uint16 // bitmask over concept indices (videomodel.MaxEvents = 16)
	annotatedOnly bool
}

// orderEntry's order slice is shared by every hit and must stay read-only.
type orderEntry struct {
	order     []int
	edgeEvals int
}

func (om *orderMemo) get(k orderKey) (orderEntry, bool) {
	om.mu.Lock()
	defer om.mu.Unlock()
	ent, ok := om.entries[k]
	return ent, ok
}

// put stores an entry, dropping every entry first when the memo is full.
func (om *orderMemo) put(k orderKey, ent orderEntry) {
	om.mu.Lock()
	defer om.mu.Unlock()
	if len(om.entries) >= maxMemoOrders || om.entries == nil {
		om.entries = make(map[orderKey]orderEntry)
	}
	om.entries[k] = ent
}

// DefaultScratchArenas is the arena free-list capacity used when
// Options.ScratchArenas is zero: two arenas per CPU (floor 4), enough
// for every runnable search plus a recycling margin while staying a
// small multiple of the working set.
func DefaultScratchArenas() int {
	n := 2 * runtime.GOMAXPROCS(0)
	if n < 4 {
		n = 4
	}
	return n
}

// NewEngine returns an engine over the model. The model is not copied:
// models are never mutated after they are built, so the derived caches
// stay valid for the engine's lifetime. A retrained or grown model is a
// new model and gets a new engine (build → serve → replace).
func NewEngine(m *hmmm.Model, opts Options) (*Engine, error) {
	if m == nil {
		return nil, errors.New("retrieval: nil model")
	}
	if err := validateModel(m); err != nil {
		return nil, err
	}
	e := &Engine{m: m, opts: opts.withDefaults()}
	e.shared = buildShared(m, e.opts)
	return e, nil
}

// validateModel checks what the derived caches rely on: the model's own
// invariants — among them that a state's local index is its global index
// minus its video's first, which lets the lattice derive one from the
// other without loading the state — and start times in [0, 2³¹): they fit
// the packed column, and none is negative, which is what lets a scope
// without a window skip the column altogether.
func validateModel(m *hmmm.Model) error {
	if err := m.Validate(1e-6); err != nil {
		return fmt.Errorf("retrieval: invalid model: %w", err)
	}
	for s := range m.States {
		if ms := m.States[s].StartMS; ms < 0 || ms > math.MaxInt32 {
			return fmt.Errorf("retrieval: invalid model: state %d starts at %dms, outside [0, 2^31)", s, ms)
		}
	}
	return nil
}

// buildShared computes the derived caches for the model under the given
// (defaulted) options.
func buildShared(m *hmmm.Model, opts Options) *engineShared {
	sh := &engineShared{
		states:   m.NumStates(),
		concepts: m.NumConcepts(),
		nVideos:  m.NumVideos(),
	}
	for vi := 0; vi < sh.nVideos; vi++ {
		lo, hi := m.VideoStates(vi)
		if n := hi - lo; n > sh.maxLocal {
			sh.maxLocal = n
		}
	}
	sh.buildIndex(m, opts.BuildWorkers)
	if !opts.NoSimCache {
		sh.sim = buildSimTable(m, opts.SimEpsilon, opts.BuildWorkers)
	}
	if opts.CoarseCandidates > 0 {
		sh.coarse = index.Build(m, opts.SimEpsilon)
	}
	// The bound tables read Eq. 14 through Sim, so they see the values
	// the lattice will: from the table just built, or computed directly.
	sh.bound = (&Engine{m: m, opts: opts, shared: sh}).buildBounds(opts.BuildWorkers)
	poolCap := opts.ScratchArenas
	if poolCap <= 0 {
		poolCap = DefaultScratchArenas()
	}
	sh.arenas = make(chan *arena, poolCap)
	return sh
}

// buildIndex fills the CSR event index and the start-time column in two
// passes over the states: count each (video, concept) list, prefix-sum the
// counts into offsets, then write the postings. Every video owns its
// offset slots and its postings range, so both passes fan out over
// workers with bit-identical contents for any count, and each list is
// ascending because a video's states are scanned forward.
func (sh *engineShared) buildIndex(m *hmmm.Model, workers int) {
	c := sh.concepts
	sh.postOff = make([]int32, sh.nVideos*c+1)
	sh.startMS = make([]int32, sh.states)
	par.For(workers, sh.nVideos, func(vi int) {
		counts := sh.postOff[vi*c+1 : (vi+1)*c+1]
		lo, hi := m.VideoStates(vi)
		for s := lo; s < hi; s++ {
			sh.startMS[s] = int32(m.States[s].StartMS)
			for _, ev := range m.States[s].Events {
				if ev.Valid() {
					counts[ev.Index()]++
				}
			}
		}
	})
	for k := 1; k < len(sh.postOff); k++ {
		sh.postOff[k] += sh.postOff[k-1]
	}
	sh.postings = make([]int32, sh.postOff[len(sh.postOff)-1])
	par.For(workers, sh.nVideos, func(vi int) {
		var next [videomodel.MaxEvents]int32
		copy(next[:], sh.postOff[vi*c:(vi+1)*c])
		lo, hi := m.VideoStates(vi)
		for s := lo; s < hi; s++ {
			for _, ev := range m.States[s].Events {
				if ev.Valid() {
					ci := ev.Index()
					sh.postings[next[ci]] = int32(s)
					next[ci]++
				}
			}
		}
	})
}

// WithOptions returns an engine over the same model with different
// per-query options, sharing this engine's derived caches. The caches are
// reused when the cache-affecting options (SimEpsilon, NoSimCache, and
// coarse-prefilter presence) are unchanged; otherwise they are rebuilt.
// The server uses this to apply per-request TopK/Beam/CrossVideo/
// AnnotatedOnly overrides without paying the cache build on every
// request. Changing CoarseCandidates between two positive values reuses
// the coarse index (the limit is applied per query, not baked into it).
func (e *Engine) WithOptions(opts Options) *Engine {
	opts = opts.withDefaults()
	ne := &Engine{m: e.m, opts: opts, shared: e.shared}
	if opts.NoSimCache != e.opts.NoSimCache || opts.SimEpsilon != e.opts.SimEpsilon ||
		(opts.CoarseCandidates > 0) != (e.opts.CoarseCandidates > 0) {
		ne.shared = buildShared(e.m, opts)
	}
	return ne
}

// Model returns the engine's underlying model.
func (e *Engine) Model() *hmmm.Model { return e.m }

// topAccum accumulates candidate matches while pruning ones that can no
// longer reach the final top-limit ranking: once limit matches are held,
// any candidate scoring strictly below the limit-th best score is
// rejected before materialization. Pruning never changes the final
// ranked output — it only avoids building matches that the closing
// sort-and-truncate would discard anyway.
type topAccum struct {
	limit   int
	matches []Match
	// raw counts every completed candidate sequence, including pruned
	// ones: the StopAfterMatches threshold semantics predate pruning and
	// count raw completions.
	raw     int
	thresh  float64
	pruning bool
}

// admit reports whether a candidate with the score can still make the
// final ranking. Ties with the current threshold are admitted (the lex
// tie-break on states may still place them).
func (a *topAccum) admit(score float64) bool { return !a.pruning || score >= a.thresh }

// add appends an admitted match, compacting to the top-limit set once
// enough accumulate.
func (a *topAccum) add(m Match) {
	a.matches = append(a.matches, m)
	if len(a.matches) >= 2*a.limit {
		sortMatches(a.matches)
		a.matches = a.matches[:a.limit]
		a.thresh = a.matches[a.limit-1].Score
		a.pruning = true
	}
}

// finalize ranks and truncates the accumulated matches.
func (a *topAccum) finalize(topK int) []Match {
	sortMatches(a.matches)
	if len(a.matches) > topK {
		a.matches = a.matches[:topK]
	}
	return a.matches
}

// Retrieve runs the Figure-2 process: traverse the video level (Step 2)
// selecting candidate videos, walk the shot lattice per video (Steps 3-5),
// score candidate sequences (Step 6), and rank them (Steps 7-9).
func (e *Engine) Retrieve(q Query) (*Result, error) {
	return e.RetrieveContext(context.Background(), q)
}

// RetrieveContext is Retrieve honoring a request context: the traversal
// polls ctx at video boundaries and every ctxPollEdges lattice edge
// relaxations, so a deadline or client disconnect stops the search within
// a bounded amount of further work. An expired context is not an error —
// the matches ranked so far are returned with Cost.Truncated set, turning
// a pathological query into a fast partial answer instead of unbounded
// work. With a background (never-cancelled) context the result is
// bit-identical to Retrieve.
func (e *Engine) RetrieveContext(ctx context.Context, q Query) (*Result, error) {
	if err := q.validateFor(e.m.NumConcepts()); err != nil {
		return nil, err
	}
	// Stage timing backs both Options.Metrics and Options.Trace; with
	// neither configured no clock is read.
	timed := e.opts.Metrics != nil || e.opts.Trace != nil
	var t0, t1, t2 time.Time
	if timed {
		t0 = time.Now()
	}
	res := &Result{}
	steps := q.steps()
	// With certified pruning, videos come off the arena's bound queue
	// instead of the Step-2 order, and the visit stops at the cut.
	pruning := e.prunes(q.Scope)
	var order []int
	if !pruning {
		order = e.videoOrder(steps, q.Scope, &res.Cost)
	}
	if q.Scope != nil && q.Scope.Video != 0 {
		scoped := order[:0:0]
		for _, vi := range order {
			if e.m.VideoIDs[vi] == q.Scope.Video {
				scoped = append(scoped, vi)
			}
		}
		if len(scoped) == 0 {
			// The scoped video may lack the first step's events entirely;
			// search it anyway when it exists (similarity mode may match).
			for vi, vid := range e.m.VideoIDs {
				if vid == q.Scope.Video {
					scoped = append(scoped, vi)
					break
				}
			}
		}
		order = scoped
	}
	ar := e.getArena()
	if pruning {
		e.queueBounds(ar, steps)
	}
	if timed {
		t1 = time.Now()
	}
	k := e.opts.TopK
	acc := &topAccum{limit: k}
	stopAt := 0
	if e.opts.StopAfterMatches {
		stopAt = 3 * k
	}
	sctx := &searchCtx{steps: steps, scope: q.Scope, cost: &res.Cost, ar: ar, acc: acc, ctx: ctx}
	for oi := 0; ; oi++ {
		vi := -1
		switch {
		case pruning:
			if vi = ar.nextBounded(k); vi < 0 && len(ar.queue) > 0 {
				e.emit(TraceEvent{Kind: TracePrune, N: len(ar.queue), Value: ar.best[0]})
			}
		case oi < len(order):
			vi = order[oi]
		}
		if vi < 0 || sctx.expired() {
			break
		}
		res.Cost.VideosSeen++
		e.emit(TraceEvent{Kind: TraceVideoEnter, Video: vi, N: oi})
		ar.beginVideo()
		matches, raw := e.searchVideo(vi, sctx)
		for _, m := range matches {
			acc.add(m)
			if pruning {
				ar.keepBest(m.Score, k)
			}
		}
		acc.raw += raw
		if stopAt > 0 && acc.raw >= stopAt {
			e.emit(TraceEvent{Kind: TraceEarlyStop, N: acc.raw})
			break
		}
	}
	e.putArena(ar)
	if timed {
		t2 = time.Now()
	}
	res.Matches = acc.finalize(e.opts.TopK)
	if ctx.Err() != nil {
		res.Cost.Truncated = true
	}
	if timed {
		t3 := time.Now()
		if tr := e.opts.Trace; tr != nil {
			tr.Record("order", t0, t1.Sub(t0))
			tr.Record("search", t1, t2.Sub(t1))
			tr.Record("rank", t2, t3.Sub(t2))
		}
		e.opts.Metrics.observe(res.Cost, !e.opts.NoSimCache,
			t3.Sub(t0), t1.Sub(t0), t2.Sub(t1), t3.Sub(t2))
	}
	return res, nil
}

// videoOrder implements Step 2: start from the highest-Π2 video containing
// the first step's events (checking B2), then repeatedly hop to the
// remaining video with the strongest A2 affinity to the previous one.
// Videos lacking the events entirely are appended last (they can still
// host similar shots when AnnotatedOnly is false). With the coarse
// prefilter enabled (Options.CoarseCandidates > 0), the candidate set is
// first pruned to the prefilter's survivors — except for queries scoped
// to a single video, which skip the prefilter (the scope already prunes
// harder than the index could, and bypassing keeps scoped results
// bit-identical to the exact engine's). The exact order is memoized on the
// shared caches (see orderMemo); the returned slice is shared and must not
// be modified.
func (e *Engine) videoOrder(steps []Step, scope *Scope, cost *Cost) []int {
	if e.opts.CoarseCandidates > 0 && e.shared.coarse != nil &&
		(scope == nil || scope.Video == 0) {
		return e.coarseOrder(steps, cost)
	}
	key := orderKey{annotatedOnly: e.opts.AnnotatedOnly}
	for _, ev := range steps[0].Events {
		key.events |= 1 << ev.Index()
	}
	ent, ok := e.shared.orders.get(key)
	if !ok {
		ent = e.exactOrder(steps[0])
		e.shared.orders.put(key, ent)
	}
	cost.EdgeEvals += ent.edgeEvals
	return ent.order
}

// exactOrder computes videoOrder's exact-mode result for a first step: the
// greedy Π2/A2 walk over the videos passing the B2 check, then (without
// AnnotatedOnly) the remaining videos in ascending order.
func (e *Engine) exactOrder(first Step) orderEntry {
	mv := e.m.NumVideos()
	candidates := make([]int, 0, mv)
	isCandidate := make([]bool, mv)
	for v := 0; v < mv; v++ {
		if e.videoHasStep(v, first) {
			candidates = append(candidates, v)
			isCandidate[v] = true
		}
	}
	var walk Cost
	order := e.greedyOrder(candidates, &walk)
	if !e.opts.AnnotatedOnly {
		for v := 0; v < mv; v++ {
			if !isCandidate[v] {
				order = append(order, v)
			}
		}
	}
	return orderEntry{order: order, edgeEvals: walk.EdgeEvals}
}

// coarseOrder is the two-stage variant of videoOrder: the internal/index
// prefilter reduces the scored pool to at most steps×CoarseCandidates
// videos, and only the survivors receive the exact Π2/A2 greedy walk. Survivors
// passing the first step's B2 check are walked exactly like videoOrder's
// candidates; in similarity-fallback mode (AnnotatedOnly=false) the
// remaining survivors are appended in ascending order, mirroring the
// exact path's trailing append restricted to survivors. When the limit
// covers the whole pool the prefilter is the identity, making this
// ordering — and hence the retrieval — bit-identical to the exact one.
func (e *Engine) coarseOrder(steps []Step, cost *Cost) []int {
	cs := make([][]int, len(steps))
	for i, st := range steps {
		cs[i] = make([]int, len(st.Events))
		for j, ev := range st.Events {
			cs[i][j] = ev.Index()
		}
	}
	// The proxy's slack compounds per transition, so the candidate budget
	// scales with pattern length: a k-step query keeps up to
	// k×CoarseCandidates survivors.
	limit := e.opts.CoarseCandidates
	if len(steps) > 1 {
		limit *= len(steps)
	}
	survivors, scored := e.shared.coarse.Candidates(cs, limit, !e.opts.AnnotatedOnly)
	// Coarse scoring work is accounted as edge evaluations: one cheap
	// table-product per scored video, the analogue of the A2 edge scans
	// it replaces.
	cost.EdgeEvals += scored
	candidates := make([]int, 0, len(survivors))
	var tail []int
	for _, v := range survivors {
		if e.videoHasStep(v, steps[0]) {
			candidates = append(candidates, v)
		} else if !e.opts.AnnotatedOnly {
			tail = append(tail, v)
		}
	}
	return append(e.greedyOrder(candidates, cost), tail...)
}

// greedyOrder runs the Step-2 greedy walk over a candidate set: seed
// with the max-Π2 candidate, then repeatedly hop to the remaining
// candidate with the strongest A2 affinity to the previous one. Chosen
// candidates are swap-removed from the working set so the walk scans
// only the still-unvisited suffix; ties break toward the smallest video
// index, matching the ascending first-max scan the removal replaced.
// The candidates slice is consumed (mutated).
func (e *Engine) greedyOrder(candidates []int, cost *Cost) []int {
	order := make([]int, 0, e.m.NumVideos())
	if len(candidates) > 0 {
		// Seed with the max-Π2 candidate (smallest index on ties).
		bi := 0
		for i, v := range candidates[1:] {
			if e.m.Pi2[v] > e.m.Pi2[candidates[bi]] {
				bi = i + 1
			}
		}
		cur := candidates[bi]
		candidates[bi] = candidates[len(candidates)-1]
		candidates = candidates[:len(candidates)-1]
		order = append(order, cur)
		for len(candidates) > 0 {
			row := e.m.A2.Row(cur)
			bi = 0
			best := row[candidates[0]]
			cost.EdgeEvals++
			for i := 1; i < len(candidates); i++ {
				cost.EdgeEvals++
				v := candidates[i]
				if aff := row[v]; aff > best || (aff == best && v < candidates[bi]) {
					bi, best = i, aff
				}
			}
			cur = candidates[bi]
			candidates[bi] = candidates[len(candidates)-1]
			candidates = candidates[:len(candidates)-1]
			order = append(order, cur)
		}
	}
	return order
}

// videoHasStep reports whether video v contains every event of the step
// according to B2 (the Step-2 feature check).
func (e *Engine) videoHasStep(v int, step Step) bool {
	for _, ev := range step.Events {
		if e.m.B2.At(v, ev.Index()) == 0 {
			return false
		}
	}
	return true
}

// transition returns the A1 factor between two states of the same video.
func (e *Engine) transition(vi, from, to int) float64 {
	a := e.m.LocalA[vi]
	return a.At(e.m.States[from].LocalIdx, e.m.States[to].LocalIdx)
}

// nextVideo picks the not-yet-visited video with the highest A2 affinity
// to cur among those containing ev (B2 check). It returns -1 when none
// qualifies.
func (e *Engine) nextVideo(cur int, used []bool, step Step, cost *Cost) int {
	best := -1
	for v := 0; v < e.m.NumVideos(); v++ {
		if used[v] || !e.videoHasStep(v, step) {
			continue
		}
		cost.EdgeEvals++
		if best == -1 || e.m.A2.At(cur, v) > e.m.A2.At(cur, best) {
			best = v
		}
	}
	return best
}

func (e *Engine) simCounted(s int, step Step, cost *Cost) float64 {
	cost.SimEvals++
	return e.SimStep(s, step)
}

// SimStep averages Sim over the step's conjunct events.
func (e *Engine) SimStep(s int, step Step) float64 {
	if len(step.Events) == 0 {
		return 0
	}
	var sum float64
	for _, ev := range step.Events {
		sum += e.Sim(s, ev)
	}
	return sum / float64(len(step.Events))
}

// sortMatches orders matches by score descending with a deterministic
// tie-break on state indices.
func sortMatches(ms []Match) {
	slices.SortFunc(ms, func(x, y Match) int {
		if x.Score != y.Score {
			if x.Score > y.Score {
				return -1
			}
			return 1
		}
		if c := slices.Compare(x.States, y.States); c != 0 {
			return c
		}
		return 0
	})
}

// ExactMatch reports whether every step of the match lands on a state
// annotated with all of the corresponding step's events: the ground-truth
// criterion used by the precision experiments.
func ExactMatch(m *hmmm.Model, match Match, q Query) bool {
	steps := q.steps()
	if len(match.States) != len(steps) {
		return false
	}
	for i, s := range match.States {
		if !stateHasStep(&m.States[s], steps[i]) {
			return false
		}
	}
	return true
}

// MergeRanked deduplicates matches by state sequence (keeping the highest
// score), re-ranks, and truncates to topK. The server uses it to combine
// the results of the several linear patterns an MATN query may expand to.
func MergeRanked(matches []Match, topK int) []Match {
	if topK <= 0 {
		topK = DefaultTopK
	}
	best := make(map[string]Match, len(matches))
	for _, m := range matches {
		k := stateKey(m.States)
		if old, ok := best[k]; !ok || m.Score > old.Score {
			best[k] = m
		}
	}
	out := make([]Match, 0, len(best))
	for _, m := range best {
		out = append(out, m)
	}
	sortMatches(out)
	if len(out) > topK {
		out = out[:topK]
	}
	return out
}

func stateKey(states []int) string {
	b := make([]byte, 0, len(states)*3)
	for _, s := range states {
		b = strconv.AppendInt(b, int64(s), 10)
		b = append(b, ',')
	}
	return string(b)
}
