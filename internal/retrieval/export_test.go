package retrieval

// Posting and StartMSColumn expose the engine's derived index to the
// external test package, whose layout tests need the shard and live
// fixtures this package cannot import.

func (e *Engine) Posting(vi, ci int) []int32 { return e.shared.posting(vi, ci) }

func (e *Engine) StartMSColumn() []int32 { return e.shared.startMS }

// HasSimTable reports whether the engine holds the Eq. 14 table.
func (e *Engine) HasSimTable() bool { return e.shared.sim != nil }

// SameCaches reports whether e and o share one set of derived caches.
func (e *Engine) SameCaches(o *Engine) bool { return e.shared == o.shared }

// VideoBound is the certified bound on q's score in video vi, as the
// pruned visit order keys it.
func (e *Engine) VideoBound(vi int, q Query) float64 {
	return e.shared.bound.videoBound(vi, q.Steps, boundSlack(q.Steps))
}

// Unpruned returns an engine over the same model and options whose caches
// carry no bound tables, so it never prunes: the exhaustive reference the
// pruning differentials compare against.
func (e *Engine) Unpruned() *Engine {
	ne := &Engine{m: e.m, opts: e.opts, shared: buildShared(e.m, e.shared.sim == nil, e.shared.coarse != nil)}
	ne.shared.bound = nil
	return ne
}

// Step2Candidates counts the videos passing q's first-step B2 check: the
// videos an exhaustive annotation-only search expands.
func (e *Engine) Step2Candidates(q Query) int {
	n := 0
	for v := 0; v < e.m.NumVideos(); v++ {
		if e.videoHasStep(v, q.Steps[0]) {
			n++
		}
	}
	return n
}
