package shard

import (
	"context"
	"fmt"
	"time"

	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/par"
	"github.com/videodb/hmmm/internal/retrieval"
)

// GroupOptions tunes the scatter-gather layer around the per-shard
// retrieval engines. It has no fields; NewGroup keeps the parameter so
// its callers' signatures stand.
type GroupOptions struct{}

// Group serves retrievals by scattering them across per-shard engines
// and gathering the per-shard rankings into one exact global ranking.
//
// Sharded semantics, relative to a single engine over the full model:
//
//   - Full retrieval (no StopAfterMatches): the merged ranking is
//     bit-identical to the single engine's — scores, order, and the
//     state-sequence tie-break. Every candidate sequence lives inside
//     one video, hence inside exactly one shard, where Π1/A1/B1 and the
//     shared P1,2/B1' reproduce its Eq. 12-15 score bit for bit; the
//     per-shard top-K lists are supersets of the global top-K's
//     restriction to each shard, and the gather re-ranks them under the
//     same deterministic comparator.
//   - StopAfterMatches becomes a per-shard budget: each shard stops on
//     its own after collecting 3×TopK raw matches in its local affinity
//     order. With K=1 this is exactly the single engine's early stop;
//     with K>1 the group inspects at most K budgets' worth of videos,
//     which can only widen the searched set.
//   - CrossVideo hops stay inside the shard: the Figure-3 "end of one
//     video" continuation picks the A2-nearest video of the same shard.
//     Cross-shard continuations would need the full A2 row and are
//     deliberately out of scope; the exactness guarantee above is
//     stated for CrossVideo off.
//   - CoarseCandidates applies per shard: each shard's engine builds
//     its own coarse index and prefilters its own videos to the
//     per-step budget, so a group with K shards may expand up to
//     K×steps×limit videos in total. A limit covering every shard's
//     video count keeps the
//     prefilter an identity, so the merged ranking stays bit-identical
//     to the exact single engine; a pruning limit trades the same
//     recall@K guarantee the single two-stage engine gives, shard by
//     shard.
//   - Cost is the sum over shards (SimEvals/EdgeEvals/VideosSeen), and
//     Truncated is the OR: one expired shard marks the whole result
//     partial. Every shard orders its own videos — greedily, or by its
//     certified bounds in exact search, where it also prunes against
//     its own K-th best score — so the summed counters legitimately
//     differ from the single engine's one global traversal.
//
// A Group is immutable after construction and safe for concurrent use.
type Group struct {
	shards  []*Shard
	engines []*retrieval.Engine
	opts    retrieval.Options
}

// NewGroup splits m into at most k shards and builds one engine per
// shard. opts configures the per-shard engines, with two amendments:
// Metrics and Trace are stripped (K engines recording per-retrieval
// observations would multiply every counter by the fan-out; the group
// keeps opts.Trace for its own scatter/merge spans), and Deadline is
// dropped, as NewEngine drops it: it is per request.
func NewGroup(m *hmmm.Model, k int, opts retrieval.Options, _ GroupOptions) (*Group, error) {
	shards, err := Split(m, k)
	if err != nil {
		return nil, err
	}
	opts.Deadline = time.Time{}
	g := &Group{shards: shards, opts: opts}
	g.engines = make([]*retrieval.Engine, len(shards))
	for i, sh := range shards {
		e, err := retrieval.NewEngine(sh.Model, stripObservers(opts))
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		g.engines[i] = e
	}
	return g, nil
}

// stripObservers removes the per-retrieval observers from engine
// options; see NewGroup.
func stripObservers(opts retrieval.Options) retrieval.Options {
	opts.Metrics = nil
	opts.Trace = nil
	return opts
}

// WithOptions returns a group whose engines use opts (observers
// stripped, as in NewGroup) but share the underlying shards and — for
// cache-compatible options — the engines' derived caches.
func (g *Group) WithOptions(opts retrieval.Options) *Group {
	ng := &Group{shards: g.shards, opts: opts}
	ng.engines = make([]*retrieval.Engine, len(g.engines))
	for i, e := range g.engines {
		ng.engines[i] = e.WithOptions(stripObservers(opts))
	}
	return ng
}

// WithTopK is WithOptions changing only TopK.
func (g *Group) WithTopK(k int) retrieval.Retriever {
	opts := g.opts
	opts.TopK = k
	return g.WithOptions(opts)
}

// Retrieve is RetrieveContext with a background context.
func (g *Group) Retrieve(q retrieval.Query) (*retrieval.Result, error) {
	return g.RetrieveContext(context.Background(), q)
}

// RetrieveContext is RetrieveInto with fresh storage.
func (g *Group) RetrieveContext(ctx context.Context, q retrieval.Query) (*retrieval.Result, error) {
	res, err := g.RetrieveInto(ctx, q, nil)
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// RetrieveInto scatters q across the shard engines and gathers the
// per-shard rankings into one global ranking, merging several in buf's
// match array (the Retriever method; the shards rank concurrently, in
// fresh storage); see the Group docs for the sharded semantics. The
// scatter reuses the internal/par fan-out
// (each shard writes only its own slot, so the merged result is
// bit-identical for every GOMAXPROCS), and the retrieval.Gather lifts
// each shard's state ids by the shard's offset into parent-model ids
// before the deterministic merge. The view's Options.Deadline reaches
// every shard engine; a shard it (or the request context) stops
// contributes its partial ranking and marks the merged Cost.Truncated,
// like a truncated single-engine retrieval.
func (g *Group) RetrieveInto(ctx context.Context, q retrieval.Query, buf *retrieval.RankBuf) (retrieval.Result, error) {
	if err := q.Validate(); err != nil {
		return retrieval.Result{}, err
	}
	endScatter := g.opts.Trace.Span("scatter")
	results := make([]retrieval.Result, len(g.engines))
	errs := make([]error, len(g.engines))
	par.For(len(g.engines), func(i int) {
		res, err := g.engines[i].RetrieveInto(ctx, q, nil)
		if err != nil {
			errs[i] = fmt.Errorf("shard %d: %w", i, err)
			return
		}
		results[i] = res
	})
	endScatter()
	if err := par.FirstErr(errs); err != nil {
		return retrieval.Result{}, err
	}

	endMerge := g.opts.Trace.Span("merge")
	defer endMerge()
	gather := retrieval.Gather{TopK: g.opts.TopK, Deadline: g.opts.Deadline, Buf: buf}
	for i := range results {
		gather.Add(&results[i], g.shards[i].Offset)
	}
	return gather.Done(ctx), nil
}
