package retrieval

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
)

// estimateParallelWork approximates the edge evaluations a retrieval
// over the given entry videos will perform: per video, each step
// contributes its candidate count — the length of the shortest posting
// list among the step's events, or the video's whole local state count
// when the similarity fallback would scan it (no annotated candidates
// and !AnnotatedOnly) — and the sum is scaled by the beam width, since
// each surviving cell rescans the next stage's candidates. The estimate
// reads only the engine's immutable index, so it is deterministic for a
// given model and query.
func (e *Engine) estimateParallelWork(order []int, steps []Step) int {
	work := 0
	for _, vi := range order {
		work += e.estimateVideoWork(vi, steps)
	}
	return work
}

// estimateVideoWork is the per-video term of the work estimate: the sum
// over steps of the candidate count each stage would scan, scaled by the
// beam width.
func (e *Engine) estimateVideoWork(vi int, steps []Step) int {
	lo, hi := e.m.VideoStates(vi)
	nLocal := hi - lo
	perVideo := 0
	for _, st := range steps {
		cand := nLocal
		if len(st.Events) > 0 {
			n := len(e.shared.stepPosting(vi, st))
			if n > 0 || e.opts.AnnotatedOnly {
				cand = n
			}
		}
		perVideo += cand
	}
	return perVideo * e.opts.Beam
}

// EstimateCost approximates the lattice edge evaluations q would perform
// — the same posting-length × steps × beam estimate the parallel fan-out
// heuristic uses, summed over the videos the query's scope admits. It
// reads only the engine's immutable index, so it is deterministic for a
// given model and query and costs a few index-length lookups per video —
// cheap enough to run on every request. The server's admission lanes use
// it to split traffic into cheap (fast-lane) and heavy (queued) classes
// before committing any search work. An invalid query estimates to 0: it
// will be rejected by Retrieve before doing work anyway.
func (e *Engine) EstimateCost(q Query) int {
	steps := q.steps()
	if len(steps) == 0 {
		return 0
	}
	if q.Scope != nil && q.Scope.Video != 0 {
		for vi, vid := range e.m.VideoIDs {
			if vid == q.Scope.Video {
				return e.estimateVideoWork(vi, steps)
			}
		}
		return 0
	}
	work := 0
	for vi := 0; vi < len(e.m.VideoIDs); vi++ {
		work += e.estimateVideoWork(vi, steps)
	}
	return work
}

// effectiveParallel resolves the worker count for one query: the
// Options.Parallel ceiling, lowered so each worker gets at least
// MinParallelWork estimated edge evaluations, and falling back to the
// serial loop (1) when the whole query is too small to amortize
// goroutine spawn and ordered-commit overhead. The decision depends
// only on the model and query — never on timing — and the serial and
// parallel paths are bit-identical, so results are unaffected either
// way.
func (e *Engine) effectiveParallel(order []int, steps []Step) int {
	workers := e.opts.Parallel
	if workers <= 1 {
		return 1
	}
	if workers > len(order) {
		workers = len(order)
	}
	minWork := e.opts.MinParallelWork
	if minWork < 0 {
		return workers // heuristic disabled: always fan out
	}
	if minWork == 0 {
		minWork = DefaultMinParallelWork
	}
	if byWork := e.estimateParallelWork(order, steps) / minWork; byWork < workers {
		workers = byWork
	}
	if workers < 1 {
		return 1
	}
	return workers
}

// retrieveParallel fans the per-video lattice searches out over the
// given worker count as an ordered pipeline: workers pull entry
// videos from the Π2/A2 affinity order, and finished results are
// committed strictly in that order. Commit-order determinism is what
// makes the combined result — matches, scores, and cost counters —
// bit-identical to a serial run.
//
// StopAfterMatches composes with the pipeline: the raw-match threshold is
// evaluated on the committed in-order prefix exactly as the serial loop
// evaluates it, so the same videos contribute and the same early-stop
// point is reached. Videos searched speculatively past that point are
// cancelled (workers check the flag between lattice stages) and their
// results discarded without touching matches or cost.
//
// Workers prune with a racy snapshot of the accumulator's admission
// threshold. The threshold only ever rises, so a stale snapshot admits a
// superset; the commit step re-filters against the authoritative
// accumulator, preserving exact serial semantics.
// Request-context cancellation composes too: workers poll ctx inside the
// lattice (searchCtx.tick) and before pulling the next video, so an
// expired deadline or a vanished client stops the fan-out within a
// bounded amount of work; whatever the commit frontier had accepted by
// then is returned as the truncated partial result.
func (e *Engine) retrieveParallel(ctx context.Context, workers int, order []int, q Query, steps []Step, res *Result, acc *topAccum) {
	type videoResult struct {
		matches []Match
		raw     int
		cost    Cost
		done    bool
	}
	stopAt := 0
	if e.opts.StopAfterMatches {
		stopAt = 3 * e.opts.TopK
	}
	var (
		mu        sync.Mutex
		results   = make([]videoResult, len(order))
		nextIdx   int
		committed int
		stopped   bool
		cancel    atomic.Bool
		hintBits  atomic.Uint64 // Float64bits of the last published threshold
		hintOn    atomic.Bool
	)
	// commitLocked advances the in-order commit frontier over finished
	// results. Caller holds mu.
	commitLocked := func() {
		for !stopped && committed < len(results) && results[committed].done {
			vr := &results[committed]
			res.Cost.add(vr.cost)
			for _, m := range vr.matches {
				if acc.admit(m.Score) {
					acc.add(m)
				}
			}
			acc.raw += vr.raw
			vr.matches = nil
			committed++
			if stopAt > 0 && acc.raw >= stopAt {
				stopped = true
				cancel.Store(true)
				e.emit(TraceEvent{Kind: TraceEarlyStop, N: acc.raw})
			}
		}
		if acc.pruning {
			hintBits.Store(math.Float64bits(acc.thresh))
			hintOn.Store(true)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ar := e.getArena()
			defer e.putArena(ar)
			sctx := &searchCtx{
				steps:  steps,
				scope:  q.Scope,
				ar:     ar,
				cancel: &cancel,
				ctx:    ctx,
				admit: func(score float64) bool {
					return !hintOn.Load() || score >= math.Float64frombits(hintBits.Load())
				},
			}
			for {
				if sctx.expired() {
					return
				}
				mu.Lock()
				if stopped || nextIdx >= len(order) {
					mu.Unlock()
					return
				}
				oi := nextIdx
				nextIdx++
				mu.Unlock()

				vi := order[oi]
				var c Cost
				c.VideosSeen = 1
				sctx.cost = &c
				e.emit(TraceEvent{Kind: TraceVideoEnter, Video: vi, N: oi})
				ar.beginVideo()
				matches, raw := e.searchVideo(vi, sctx)

				mu.Lock()
				results[oi] = videoResult{matches: matches, raw: raw, cost: c, done: true}
				commitLocked()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}
