package retrieval

// estimateVideoWork approximates the edge evaluations the lattice
// performs over one entry video: per step, the candidate count — the
// length of the shortest posting list among the step's events, or the
// video's whole local state count when the similarity fallback would
// scan it (no annotated candidates and !AnnotatedOnly) — and the sum is
// scaled by the beam width, since each surviving cell rescans the next
// stage's candidates.
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
// — the posting-length × steps × beam estimate of estimateVideoWork,
// summed over the videos the query's scope admits, as if no certified
// cut were taken (an over-estimate for pruning exact search). It reads
// only the engine's immutable index, so it is deterministic for a given
// model and query and costs a few index-length lookups per video — cheap enough to
// run on every request. The server's admission lanes use it to split
// traffic into cheap (fast-lane) and heavy (queued) classes before
// committing any search work. An invalid query estimates to 0: it will
// be rejected by Retrieve before doing work anyway.
func (e *Engine) EstimateCost(q Query) int {
	if len(q.Steps) == 0 {
		return 0
	}
	if q.Scope != nil && q.Scope.Video != 0 {
		for vi, vid := range e.m.VideoIDs {
			if vid == q.Scope.Video {
				return e.estimateVideoWork(vi, q.Steps)
			}
		}
		return 0
	}
	work := 0
	for vi := 0; vi < len(e.m.VideoIDs); vi++ {
		work += e.estimateVideoWork(vi, q.Steps)
	}
	return work
}
