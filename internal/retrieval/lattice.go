package retrieval

import (
	"context"
	"slices"
	"time"

	// The compiler inlines methods only from packages this one imports,
	// and the per-edge A1 read, mmm.A1Row.At, must inline into lattice.
	_ "github.com/videodb/hmmm/internal/mmm"
)

// cell is one node of the Figure-3 lattice: the best-known path reaching a
// given state at a given query stage. Cells live in a per-search arena and
// reference their predecessor by arena index, so a whole retrieval
// allocates no per-edge nodes; backpointers materialize the path.
type cell struct {
	state int32 // global state index
	vi    int32 // video index of the state
	prev  int32 // arena index of the predecessor cell, -1 at pattern start
	w     float64
	score float64
}

// arena is the reusable per-search scratch: the cell slab, the two stage
// ref buffers, the candidate buffer, the visited-video set, and the dense
// Viterbi relaxation slots. Arenas are pooled on the engine's shared state
// and grow monotonically to the working-set size, after which a Retrieve
// performs no lattice allocation at all.
type arena struct {
	cells      []cell
	bufA, bufB []int32 // current / next stage cell refs
	entry      []int32 // cross-video entry refs (copied, so stage buffers stay free)
	cand       []int32 // stepCandidates filter buffer
	visited    []bool  // per-video visited flags for cross-video hops
	touched    []int32 // videos to clear from visited on beginVideo
	// Dense relaxation: local state li's next-stage slot is relaxSlot[li],
	// valid only when relaxEpoch[li] == epoch. Bumping epoch resets every
	// slot in O(1).
	relaxEpoch []int64
	relaxSlot  []int32
	epoch      int64
	// queue is certified pruning's max-heap of candidate videos by bound
	// (bound.go); top holds the K best complete paths, which both the
	// ranking and the pruning cut read.
	queue []videoBoundEntry
	top   topK
}

// ensure sizes the arena for a model with nVideos videos and at most
// maxLocal states per video.
func (ar *arena) ensure(nVideos, maxLocal int) {
	if len(ar.visited) < nVideos {
		ar.visited = make([]bool, nVideos)
		ar.touched = ar.touched[:0]
	}
	if len(ar.relaxEpoch) < maxLocal {
		ar.relaxEpoch = make([]int64, maxLocal)
		ar.relaxSlot = make([]int32, maxLocal)
	}
}

// beginVideo resets the arena for the next entry video's search.
func (ar *arena) beginVideo() {
	ar.cells = ar.cells[:0]
	for _, v := range ar.touched {
		ar.visited[v] = false
	}
	ar.touched = ar.touched[:0]
}

// visit marks a video as entered by the current search.
func (ar *arena) visit(vi int) {
	ar.visited[vi] = true
	ar.touched = append(ar.touched, int32(vi))
}

// push appends a cell and returns its arena ref. Refs stay valid across
// slab growth (they are indices, not pointers).
func (ar *arena) push(c cell) int32 {
	ar.cells = append(ar.cells, c)
	return int32(len(ar.cells) - 1)
}

// getArena takes an arena sized for the engine's model from the shared
// bounded free list, allocating a fresh one when the list is empty (more
// overlapping searches than the pool cap). Both paths are counted so the
// pool's hit behavior under load is observable.
func (e *Engine) getArena() *arena {
	var ar *arena
	select {
	case ar = <-e.shared.arenas:
		e.opts.Metrics.arenaGet(true)
	default:
		ar = new(arena)
		e.opts.Metrics.arenaGet(false)
	}
	ar.ensure(e.shared.nVideos, e.shared.maxLocal)
	return ar
}

// putArena returns an arena to the free list; when the list is already
// full the arena is dropped for the GC, keeping the idle-scratch
// footprint capped at the pool size regardless of burst concurrency.
func (e *Engine) putArena(ar *arena) {
	select {
	case e.shared.arenas <- ar:
		e.opts.Metrics.arenaPut(false)
	default:
		e.opts.Metrics.arenaPut(true)
	}
}

// ctxPollEdges bounds how many lattice edge relaxations may run between
// request-context polls: the worst-case extra work after a client
// disconnects. Polling costs one predictable-branch counter test per
// edge plus a ctx.Err() call every interval, which is noise next to the
// ~100ns edge relaxation itself. A deadline's clock is read at most once
// per ctxPollEdges units of work (edges, candidates and boundaries), and
// at least once per 2×ctxPollEdges: a clock read costs about as much as
// a thousand counter tests, so reading it at every video boundary would
// cost an exact search over many small videos more than the timer
// context the deadline value replaces.
const ctxPollEdges = 512

// spent reports whether a request must stop: ctx has ended (the client
// went away, or every coalesced participant left) or deadline, when
// non-zero, has passed. The clock is read only for a set deadline.
func spent(ctx context.Context, deadline time.Time) bool {
	return ctx.Err() != nil || !deadline.IsZero() && time.Until(deadline) <= 0
}

// searchCtx carries one retrieval's per-search state: the normalized
// steps, scope, cost counters, the arena, and the request context and
// deadline honored at bounded intervals.
type searchCtx struct {
	steps []Step
	scope *Scope
	cost  Cost
	ar    *arena
	// ctx and deadline (Options.Deadline, zero for none) bound the
	// search; expired() polls them.
	ctx      context.Context
	deadline time.Time
	// polls counts units of work: tick calls and boundary polls. The
	// deadline is next compared with the clock once polls reaches clockAt.
	polls   int
	clockAt int
}

// expired reports whether the search must stop: the request context has
// ended, or the deadline has passed by the last clock read. Called at
// video and stage boundaries and by tick; the first call reads the
// clock, so a search given a spent deadline does no work.
func (sc *searchCtx) expired() bool {
	sc.polls++
	if sc.ctx.Err() != nil {
		return true
	}
	if sc.deadline.IsZero() || sc.polls < sc.clockAt {
		return false
	}
	sc.clockAt = sc.polls + ctxPollEdges
	return time.Until(sc.deadline) <= 0
}

// tick is the per-edge-relaxation check: a cheap counter that polls the
// request every ctxPollEdges calls, bounding both the poll overhead and
// the post-cancellation overrun.
func (sc *searchCtx) tick() bool {
	sc.polls++
	if sc.polls%ctxPollEdges != 0 {
		return false
	}
	return sc.expired()
}

// searchVideo runs the Figure-3 lattice over one entry video: every stage
// keeps every reachable candidate state with its best incoming path
// (Viterbi-style max over transitions), which is what lets the traversal
// "always try the right path" without dying on a locally attractive but
// non-continuable start. It offers up to Beam complete candidate
// sequences to the arena's top-K heap and returns how many it completed
// (the StopAfterMatches currency).
func (e *Engine) searchVideo(vi int, ctx *searchCtx) int {
	ar := ctx.ar
	ar.visit(vi)
	final := e.lattice(vi, 0, nil, ctx)
	final = ar.topCells(final, e.opts.Beam)
	for _, ci := range final {
		c := &ar.cells[ci]
		e.emit(TraceEvent{Kind: TraceComplete, Video: vi, State: int(c.state), Value: c.score})
		ar.top.offer(ar, ci)
	}
	return len(final)
}

// lattice expands video vi over query stages j0..C-1. entry, when non-nil,
// holds stage j0-1 cell refs in a previous video (cross-video
// continuation); otherwise stage j0 starts fresh with the Eq. 12 weight.
// It returns the final-stage cell refs, possibly from deeper videos
// reached by hops. The refs alias the arena's stage buffers and stay
// valid until the next beginVideo.
func (e *Engine) lattice(vi, j0 int, entry []int32, ctx *searchCtx) []int32 {
	ar := ctx.ar
	cost := &ctx.cost
	beam := e.opts.Beam
	cur, next := ar.bufA, ar.bufB
	// Every return stores the (possibly re-grown) buffers back for reuse.
	save := func() { ar.bufA, ar.bufB = cur, next }

	for {
		if ctx.expired() {
			save()
			return nil
		}

		// Stage j0: enter the video. lo turns a global state index into
		// the local one LocalA is addressed by.
		lo, _ := e.m.VideoStates(vi)
		st := ctx.steps[j0]
		cur = cur[:0]
		for _, s := range e.stepCandidates(ar, vi, -1, st, ctx.scope) {
			if ctx.tick() {
				save()
				return nil
			}
			sim := e.simCounted(int(s), st, cost)
			if entry == nil {
				// Eq. 12: w1 = Π1(s1) · sim(s1, e1).
				w := e.m.Pi1.At(int(s)) * sim
				cur = append(cur, ar.push(cell{state: s, vi: int32(vi), prev: -1, w: w, score: w}))
				continue
			}
			// Cross-video entry: the transition factor is the level-2
			// affinity A2(prev video, this video).
			best := int32(-1)
			var bestW, bestScore float64
			for _, eci := range entry {
				cost.EdgeEvals++
				ec := &ar.cells[eci]
				w := ec.w * e.m.A2.At(int(ec.vi), vi) * sim
				if best == -1 || w > bestW {
					best, bestW, bestScore = eci, w, ec.score
				}
			}
			if best != -1 {
				cur = append(cur, ar.push(cell{state: s, vi: int32(vi), prev: best, w: bestW, score: bestScore + bestW}))
			}
		}
		if len(cur) == 0 {
			e.emit(TraceEvent{Kind: TraceDeadEnd, Video: vi, Stage: j0})
			save()
			return nil
		}
		cur = ar.trimByWeight(cur, beam)
		e.emit(TraceEvent{Kind: TraceStage, Video: vi, Stage: j0, N: len(cur)})

		// Stages j0+1..C-1 within this video (Eq. 13), hopping by A2 when
		// the video runs out of candidates (Figure 3's "end of one video").
		hopped := false
		for j := j0 + 1; j < len(ctx.steps); j++ {
			if ctx.expired() {
				save()
				return nil
			}
			st := ctx.steps[j]
			next = next[:0]
			ar.epoch++
			a := e.m.LocalA[vi]
			for _, ci := range cur {
				c := ar.cells[ci] // copy: pushes below may grow the slab
				from := int(c.state) - lo
				// Every candidate lies after c, so each edge reads A1
				// right of the diagonal, from c's row.
				row := a.NextRow(from)
				for _, s := range e.stepCandidates(ar, vi, int(c.state), st, ctx.scope) {
					if ctx.tick() {
						save()
						return nil
					}
					cost.EdgeEvals++
					li := int(s) - lo
					w := float64(c.w * row.At(li-from) * e.simCounted(int(s), st, cost))
					if ar.relaxEpoch[li] == ar.epoch {
						// Viterbi relaxation: keep the best path per state.
						old := &ar.cells[next[ar.relaxSlot[li]]]
						if w > old.w {
							*old = cell{state: s, vi: int32(vi), prev: ci, w: w, score: c.score + w}
						}
						continue
					}
					ar.relaxEpoch[li] = ar.epoch
					ar.relaxSlot[li] = int32(len(next))
					next = append(next, ar.push(cell{state: s, vi: int32(vi), prev: ci, w: w, score: c.score + w}))
				}
			}
			if len(next) == 0 {
				if !e.opts.CrossVideo || st.MaxGapMS > 0 || (ctx.scope != nil && ctx.scope.Video != 0) {
					e.emit(TraceEvent{Kind: TraceDeadEnd, Video: vi, Stage: j})
					save()
					return nil
				}
				nv := e.nextVideo(vi, ar.visited, st, cost)
				if nv < 0 {
					e.emit(TraceEvent{Kind: TraceDeadEnd, Video: vi, Stage: j})
					save()
					return nil
				}
				ar.visit(nv)
				e.emit(TraceEvent{Kind: TraceHop, Video: nv, Stage: j})
				// Continue in the next video: the surviving cells become
				// the entry frontier. Copy the refs out of the stage
				// buffer so the next video's stages can reuse it.
				cur = ar.topCells(cur, beam)
				ar.entry = append(ar.entry[:0], cur...)
				entry = ar.entry
				vi, j0 = nv, j
				hopped = true
				break
			}
			cur, next = ar.trimByWeight(next, beam), cur
			e.emit(TraceEvent{Kind: TraceStage, Video: vi, Stage: j, N: len(cur)})
		}
		if hopped {
			continue
		}
		save()
		return cur
	}
}

// trimByWeight keeps the width best cells by current edge weight w — the
// per-stage beam of the traversal. Beam 1 reproduces the paper's greedy
// single-path walk. The comparator is a total order (stage states are
// unique), so the result is deterministic: the sorted prefix under
// (w descending, state ascending). For the small widths beams use, a
// bounded insertion selection builds that prefix in O(frontier · width)
// cheap field compares — this trim was the measured hot spot of the
// per-video lattice at archive scale — while larger widths keep the
// full sort.
func (ar *arena) trimByWeight(refs []int32, width int) []int32 {
	if len(refs) <= width {
		return refs
	}
	cells := ar.cells
	if width > 16 {
		slices.SortFunc(refs, func(a, b int32) int {
			ca, cb := &cells[a], &cells[b]
			if ca.w != cb.w {
				if ca.w > cb.w {
					return -1
				}
				return 1
			}
			return int(ca.state - cb.state)
		})
		return refs[:width]
	}
	// above reports whether cell a ranks strictly above cell b.
	above := func(a, b int32) bool {
		ca, cb := &cells[a], &cells[b]
		if ca.w != cb.w {
			return ca.w > cb.w
		}
		return ca.state < cb.state
	}
	var kept [16]int32
	n := 0
	for _, r := range refs {
		if n == width {
			if !above(r, kept[n-1]) {
				continue
			}
			n--
		}
		i := n
		for i > 0 && above(r, kept[i-1]) {
			kept[i] = kept[i-1]
			i--
		}
		kept[i] = r
		n++
	}
	copy(refs, kept[:n])
	return refs[:n]
}

// topCells returns the width best cells by running score.
func (ar *arena) topCells(refs []int32, width int) []int32 {
	cells := ar.cells
	slices.SortFunc(refs, func(a, b int32) int {
		ca, cb := &cells[a], &cells[b]
		if ca.score != cb.score {
			if ca.score > cb.score {
				return -1
			}
			return 1
		}
		return int(ca.state - cb.state)
	})
	if len(refs) > width {
		refs = refs[:width]
	}
	return refs
}

// stepCandidates returns the global state indices of video vi that can
// serve the step after global state after (-1 for "any"). States
// annotated with every step event are preferred and found through the
// inverted event index; without AnnotatedOnly, all remaining states
// compete when no annotated one exists. A single-event step with no
// negation, scope window, or gap constraint needs no per-state check, so
// its candidates are returned as a read-only alias of the posting list;
// every other result lives in the arena's candidate buffer and is valid
// until the next call. Start times are consulted only when a window or a
// gap is actually present.
func (e *Engine) stepCandidates(ar *arena, vi, after int, step Step, scope *Scope) []int32 {
	sh := e.shared
	windowed := scope != nil && (scope.FromMS > 0 || scope.ToMS > 0)
	gapped := after >= 0 && (step.MinGapMS > 0 || step.MaxGapMS > 0)
	// timeOK applies the scope window and the gap constraint to state s.
	timeOK := func(s int32) bool {
		if windowed && !scope.contains(int(sh.startMS[s])) {
			return false
		}
		return !gapped || step.gapOK(int(sh.startMS[after]), int(sh.startMS[s]))
	}

	buf := ar.cand[:0]
	if len(step.Events) > 0 {
		// Annotated candidates via the index: walk the shortest posting
		// list of the step's events from the first posting past after.
		posting := sh.stepPosting(vi, step)
		if after >= 0 {
			i, _ := slices.BinarySearch(posting, int32(after+1))
			posting = posting[i:]
		}
		conj := len(step.Events) > 1 || len(step.Not) > 0
		if !windowed && !gapped && !conj && (len(posting) > 0 || e.opts.AnnotatedOnly) {
			return posting
		}
		for _, s := range posting {
			if timeOK(s) && (!conj || stateHasStep(&e.m.States[s], step)) {
				buf = append(buf, s)
			}
		}
	}
	if len(buf) == 0 && !e.opts.AnnotatedOnly {
		// Similarity fallback: every remaining state that is NOT a full
		// annotation match (those were exhausted above) competes by
		// features. Negated events still exclude here — "!" means the shot
		// must not carry the annotation, in the fallback set as much as the
		// annotated one — so the two sets stay disjoint and together cover
		// exactly the non-excluded states.
		lo, hi := e.m.VideoStates(vi)
		for s := int32(max(lo, after+1)); s < int32(hi); s++ {
			if timeOK(s) && !stateExcluded(&e.m.States[s], step) && !stateHasStep(&e.m.States[s], step) {
				buf = append(buf, s)
			}
		}
	}
	ar.cand = buf
	return buf
}
