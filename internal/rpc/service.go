package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/shard"
)

// ShardService serves one shard of a split model: the production
// Handler behind cmd/hmmm-shardd and the in-process loopback tests. It
// owns an engine over the shard's sub-model and gathers every response
// at the shard's offset into parent-model state ids, so the coordinator
// gathers exactly what the in-process Group gathers.
type ShardService struct {
	sh     *shard.Shard
	engine *retrieval.Engine
	base   retrieval.Options
	index  int
	of     int
	gen    atomic.Uint64
}

// NewShardService builds the service for shard index of a split into
// `of` shards. base configures the engine the same way Group does:
// observers are per-process concerns, result-affecting fields are
// overridden per request from the wire options, and the deadline comes
// from each request's BudgetNS.
func NewShardService(sh *shard.Shard, index, of int, base retrieval.Options, generation uint64) (*ShardService, error) {
	base.Metrics = nil
	base.Trace = nil
	base.Deadline = time.Time{}
	engine, err := retrieval.NewEngine(sh.Model, base)
	if err != nil {
		return nil, err
	}
	s := &ShardService{sh: sh, engine: engine, base: base, index: index, of: of}
	s.gen.Store(generation)
	return s, nil
}

// SetGeneration updates the generation stamped on responses; rollout
// tests use it to simulate a shard that lags a model rollout.
func (s *ShardService) SetGeneration(gen uint64) { s.gen.Store(gen) }

// Retrieve runs the query on the shard engine with the request's
// result-affecting options and budget, lifts the ranking to parent
// ids, and stamps the generation. BudgetNS becomes the engine view's
// Options.Deadline, measured from the call, so a direct call and one
// through Server behave alike; ctx carries only cancellation. An
// expired budget or context is a degraded answer (partial ranking,
// Cost.Truncated), mirroring the local engine.
// A coarse budget on a server started without the coarse index
// (retrieval.ErrNoCoarseIndex) is refused as bad_request; a budget of 0
// is exact search on any server. It is RetrieveInto on a fresh
// response, whose ranking the caller owns.
func (s *ShardService) Retrieve(ctx context.Context, req *RetrieveRequest) (*RetrieveResponse, error) {
	resp := new(RetrieveResponse)
	if err := s.RetrieveInto(ctx, req, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// RetrieveInto is Retrieve answering into resp: the Handler method. The
// ranking is carved from resp.Rank (a server connection's, so a warm
// connection's answer allocates none), or is fresh when Rank is nil.
func (s *ShardService) RetrieveInto(ctx context.Context, req *RetrieveRequest, resp *RetrieveResponse) error {
	if err := req.Query.Validate(); err != nil {
		return &ServerError{Code: CodeBadRequest, Msg: err.Error()}
	}
	opts := req.Options.Apply(s.base)
	if req.BudgetNS > 0 {
		opts.Deadline = time.Now().Add(time.Duration(req.BudgetNS))
	}
	// Stamp the generation before searching: if a rollout lands
	// mid-request the response reports the older generation it actually
	// computed against, and the coordinator's consistency check catches
	// the skew.
	gen := s.gen.Load()
	res, err := s.engine.WithOptions(opts).RetrieveInto(ctx, req.Query, resp.Rank)
	if errors.Is(err, retrieval.ErrNoCoarseIndex) {
		return &ServerError{Code: CodeBadRequest, Msg: fmt.Sprintf(
			"coarse prefilter mismatch: the request asks for %d coarse candidates, this shard server runs without the coarse index; "+
				"give hmmmd -coarse-candidates and hmmm-shardd -coarse-candidates both positive, or hmmmd -coarse-candidates 0",
			req.Options.CoarseCandidates)}
	}
	if err != nil {
		return &ServerError{Code: CodeInternal, Msg: err.Error()}
	}
	gather := retrieval.Gather{TopK: opts.TopK, Deadline: opts.Deadline}
	gather.Add(&res, s.sh.Offset)
	out := gather.Done(ctx)
	*resp = RetrieveResponse{
		Matches: out.Matches, Cost: out.Cost, Generation: gen,
		Shard: s.index, OfShards: s.of, Rank: resp.Rank,
	}
	return nil
}

// Status reports the shard's identity and size; the Server overlays the
// DRAINING state.
func (s *ShardService) Status() StatusResponse {
	return StatusResponse{
		State:      StateReady,
		Generation: s.gen.Load(),
		Shard:      s.index,
		OfShards:   s.of,
		Videos:     len(s.sh.Videos),
		States:     s.sh.Model.NumStates(),
		Domain:     s.sh.Model.DomainName(),
	}
}
