// Package coord is the network coordinator of distributed shard
// serving: it scatters retrievals over remote shard servers
// (cmd/hmmm-shardd, spoken to through internal/rpc) and gathers the
// per-shard rankings with retrieval.Gather — so with every shard
// healthy the coordinated ranking is bit-identical to one engine's over
// the whole archive (and to a shard.Group's over the same split),
// scores and tie-breaks included.
//
// Robustness around that exact core:
//
//   - Retry: each shard request is retried on connect/transient errors
//     with capped exponential backoff plus jitter.
//   - Hedging: after a delay derived from the endpoint's own p95
//     latency, a second, speculative request goes to another replica;
//     the first response wins and the loser is cancelled.
//   - Health gating: passive failure detection ejects an endpoint after
//     a run of consecutive transient errors, backs off with capped
//     doubling, then half-opens a single probe to readmit it.
//   - Replica fan-out: each shard may list several replica addresses;
//     routing round-robins across the healthy ones.
//   - Generation consistency: responses carry the model generation, and
//     the coordinator refuses to merge mixed generations — stale shards
//     are re-queried, then dropped (degraded) rather than merged.
//   - Graceful degradation: a shard that stays down past the retry
//     budget is dropped from the merge; the query still returns the
//     committed partial ranking with Cost.Truncated set and
//     Cost.DegradedShards counting the missing shards. A coordinated
//     query never fails because a shard did.
package coord

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/videodb/hmmm/internal/api"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/rpc"
)

// Options tunes the coordinator's robustness machinery. The zero value
// of every field is replaced with the stated default.
type Options struct {
	// RetryBase / RetryMax bound the capped exponential retry backoff
	// (base doubles per retry, jittered ±50%). Defaults 10ms / 250ms.
	RetryBase time.Duration
	RetryMax  time.Duration
	// HedgeMax caps the p95-derived hedge delay (floored at hedgeMin);
	// until an endpoint has hedgeAfterN observations the delay is
	// HedgeMax. Default 100ms.
	HedgeMax time.Duration
	// AttemptTimeout bounds a single shard attempt even when the query
	// context has no deadline — the cap that turns a blackholed server
	// into a retryable failure instead of a hang. It travels as a
	// deadline value to the Transport (the rpc client makes it the
	// connection deadline), not as a context per attempt. Default 2s.
	AttemptTimeout time.Duration
	// EjectBackoff is the first re-probe backoff of an ejected endpoint;
	// it doubles per failed probe up to ejectBackoffMax. Default 250ms.
	EjectBackoff time.Duration
	// Seed seeds the jitter RNG (0 = a fixed default; determinism in
	// tests, decorrelation in production comes from per-process seeds).
	Seed uint64
	// Metrics, when non-nil, receives the hmmm_coord_* observations.
	Metrics *Metrics
}

// The coordinator's fixed policy around the clocks Options tunes.
const (
	// maxAttempts bounds tries per shard per query (first + retries).
	maxAttempts = 3
	// hedgeMin floors the p95-derived hedge delay; until an endpoint has
	// hedgeAfterN observations the delay is Options.HedgeMax.
	hedgeMin    = time.Millisecond
	hedgeAfterN = 16
	// ejectThreshold is the consecutive-transient-error run that ejects
	// an endpoint; ejectBackoffMax caps its doubling re-probe backoff.
	ejectThreshold  = 3
	ejectBackoffMax = 4 * time.Second
	// genRetries bounds re-query rounds for generation-stale shards
	// before they are dropped as degraded.
	genRetries = 2
)

func (o Options) withDefaults() Options {
	if o.RetryBase <= 0 {
		o.RetryBase = 10 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 250 * time.Millisecond
	}
	if o.HedgeMax <= 0 {
		o.HedgeMax = 100 * time.Millisecond
	}
	if o.AttemptTimeout <= 0 {
		o.AttemptTimeout = 2 * time.Second
	}
	if o.EjectBackoff <= 0 {
		o.EjectBackoff = 250 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 0x6d6d6d // "mmm"
	}
	return o
}

// errAllEjected reports a shard whose every replica is ejected and
// still backing off: the query degrades immediately instead of paying
// doomed dials.
var errAllEjected = errors.New("coord: all replicas ejected")

// errAttemptTimeout marks an attempt that exhausted AttemptTimeout
// while the query itself still had budget — retryable, unlike a parent
// deadline.
var errAttemptTimeout = errors.New("coord: shard attempt timed out")

// errShardMismatch marks a response stamped with the wrong shard
// identity: a mis-wired replica. Permanent — merging it would silently
// mix partitions, so the shard degrades instead.
var errShardMismatch = errors.New("coord: shard identity mismatch")

// Coordinator scatters retrievals over remote shards and gathers them
// into one exact global ranking. It is safe for concurrent use;
// WithOptions derives per-request views sharing all health state.
type Coordinator struct {
	sets  []*shardSet
	opts  retrieval.Options
	copts Options
	met   *Metrics

	rngMu *sync.Mutex
	rng   *rand.Rand
	// scatters holds released scatter states for reuse; shared with
	// WithOptions views.
	scatters *sync.Pool
	// domain is the event vocabulary every endpoint reported at the
	// last successful WaitReady; shared with WithOptions views.
	domain *atomic.Pointer[string]
}

// New builds a coordinator over transports[i] = the replica transports
// of shard i. baseOpts carries the result-affecting retrieval options
// (observers are ignored; the coordinator records Metrics instead).
// Deadline is per request: New drops it, as retrieval.NewEngine does, and
// a WithOptions view carries it.
func New(transports [][]Transport, baseOpts retrieval.Options, copts Options) (*Coordinator, error) {
	if len(transports) == 0 {
		return nil, errors.New("coord: no shards")
	}
	baseOpts.Deadline = time.Time{}
	copts = copts.withDefaults()
	c := &Coordinator{
		opts:     baseOpts,
		copts:    copts,
		met:      copts.Metrics,
		rngMu:    &sync.Mutex{},
		rng:      rand.New(rand.NewSource(int64(copts.Seed))),
		scatters: &sync.Pool{New: func() any { return new(scatterState) }},
		domain:   &atomic.Pointer[string]{},
	}
	for i, group := range transports {
		if len(group) == 0 {
			return nil, fmt.Errorf("coord: shard %d has no endpoints", i)
		}
		set := &shardSet{}
		for _, tr := range group {
			set.endpoints = append(set.endpoints, newEndpoint(tr))
		}
		c.sets = append(c.sets, set)
	}
	return c, nil
}

// Dial parses spec (see ParseShards) and connects an rpc client per
// replica address.
func Dial(spec string, dialTimeout time.Duration, copts Options, baseOpts retrieval.Options) (*Coordinator, error) {
	groups, err := ParseShards(spec)
	if err != nil {
		return nil, err
	}
	transports := make([][]Transport, len(groups))
	for i, addrs := range groups {
		for _, addr := range addrs {
			transports[i] = append(transports[i], rpc.NewClient(addr, dialTimeout, 2))
		}
	}
	return New(transports, baseOpts, copts)
}

// ParseShards parses a shard spec: ';' separates shards, ',' separates
// replica addresses of one shard. "a:1;b:1,b:2" = two shards, the
// second with two replicas.
func ParseShards(spec string) ([][]string, error) {
	var out [][]string
	for _, shardSpec := range strings.Split(spec, ";") {
		var addrs []string
		for _, a := range strings.Split(shardSpec, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) == 0 {
			return nil, fmt.Errorf("coord: empty shard in spec %q", spec)
		}
		out = append(out, addrs)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("coord: empty shard spec")
	}
	return out, nil
}

// WithOptions returns a coordinator view using opts for its requests
// (and the merge's TopK and deadline) while sharing every endpoint's
// health state, latency history, and metrics with the receiver.
func (c *Coordinator) WithOptions(opts retrieval.Options) *Coordinator {
	nc := *c
	nc.opts = opts
	return &nc
}

// WithTopK is WithOptions changing only TopK.
func (c *Coordinator) WithTopK(k int) retrieval.Retriever {
	opts := c.opts
	opts.TopK = k
	return c.WithOptions(opts)
}

// NumShards returns the shard fan-out.
func (c *Coordinator) NumShards() int { return len(c.sets) }

// Close closes every replica transport.
func (c *Coordinator) Close() {
	for _, set := range c.sets {
		for _, ep := range set.endpoints {
			ep.tr.Close()
		}
	}
}

// Retrieve is RetrieveContext with a background context.
func (c *Coordinator) Retrieve(q retrieval.Query) (*retrieval.Result, error) {
	return c.RetrieveContext(context.Background(), q)
}

// RetrieveContext is RetrieveInto with fresh storage.
func (c *Coordinator) RetrieveContext(ctx context.Context, q retrieval.Query) (*retrieval.Result, error) {
	res, err := c.RetrieveInto(ctx, q, nil)
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// RetrieveInto scatters q over the remote shards and gathers the
// rankings (the Retriever method): shard i's answer is decoded into
// buf's child buffer i (RankBuf.Children), and several are merged in
// buf's match array, so with a kept buf a warm query allocates no
// ranking storage; a nil buf means fresh storage. An answer a hedge won
// stays in the hedge's own fresh storage. Shard failures degrade the
// result (Cost.Truncated + Cost.DegradedShards); the query's own
// deadline (the view's Options.Deadline, or ctx's) truncates it without
// degrading it. The errors returned are q's own validation failures and
// a shard's bad_request refusal: q has already passed validation here,
// so a refusal means the shard server is configured differently from
// this coordinator (a coarse prefilter mismatch, say), which every later
// query would hit too — the error names the shard and carries the
// server's message instead of silently emptying results.
func (c *Coordinator) RetrieveInto(ctx context.Context, q retrieval.Query, buf *retrieval.RankBuf) (retrieval.Result, error) {
	if err := q.Validate(); err != nil {
		return retrieval.Result{}, err
	}
	if c.met != nil {
		c.met.Queries.Inc()
	}
	st := c.scatters.Get().(*scatterState)
	defer c.recycle(st)
	st.prepare(q, c.opts, buf, len(c.sets))
	outs := st.outs
	c.scatter(ctx, st, nil)

	// Generation consistency: never merge rankings computed on
	// different model generations. Stale shards are re-queried (a
	// rolling rollout usually lands within a round), then dropped as
	// degraded rather than merged.
	maxGen := func() uint64 {
		var g uint64
		for _, o := range outs {
			if o.err == nil && o.resp.Generation > g {
				g = o.resp.Generation
			}
		}
		return g
	}
	for round := 0; round < genRetries; round++ {
		target := maxGen()
		var stale []int
		for i, o := range outs {
			if o.err == nil && o.resp.Generation < target {
				stale = append(stale, i)
			}
		}
		if len(stale) == 0 {
			break
		}
		c.scatter(ctx, st, stale)
	}

	target := maxGen()
	gather := retrieval.Gather{TopK: c.opts.TopK, Deadline: c.opts.Deadline, Buf: buf}
	expired, degraded := false, 0
	for i, o := range outs {
		if se := rpc.AsServerError(o.err); se != nil && se.Code == rpc.CodeBadRequest {
			return retrieval.Result{}, fmt.Errorf("coord: shard %d refused the query: %w", i, o.err)
		}
		if o.err != nil {
			// A parent-context expiry is a truncation (the caller's
			// deadline), not a shard failure.
			if errors.Is(o.err, context.Canceled) || errors.Is(o.err, context.DeadlineExceeded) {
				expired = true
			} else {
				degraded++
			}
			continue
		}
		if o.resp.Generation != target {
			if c.met != nil {
				c.met.GenConflicts.Inc()
			}
			degraded++
			continue
		}
		// Shard servers reply in parent-model ids: no lift.
		gather.Add(&retrieval.Result{Matches: o.resp.Matches, Cost: o.resp.Cost}, 0)
	}
	out := gather.Done(ctx)
	out.Cost.Truncated = out.Cost.Truncated || expired || degraded > 0
	if degraded > 0 {
		out.Cost.DegradedShards += degraded
		if c.met != nil {
			c.met.Degraded.Inc()
			c.met.DegradedShards.Add(uint64(degraded))
		}
	}
	return out, nil
}

// scatterState is one query's scatter storage: the request every
// exchange of the query encodes (with its own copy of the query's
// scope), each shard's outcome, and the wait for the shards'
// goroutines. A query takes one from the coordinator's pool and
// recycle hands it back, so a warm query allocates none of it.
type scatterState struct {
	req   rpc.RetrieveRequest
	scope retrieval.Scope
	outs  []shardOut
	wg    sync.WaitGroup
}

// shardOut is the outcome of one shard's retry loop: the response every
// exchange for the shard decodes into (read only when err is nil), and
// whether an attempt launched a hedge.
type shardOut struct {
	resp rpc.RetrieveResponse
	err  error
	// hedged marks a shard whose hedge timer fired: the hedge may still
	// be encoding the state's request after the query returns.
	hedged bool
}

// prepare readies st for q over n shards: shard i decodes into buf's
// child buffer i, or fresh storage when buf is nil.
func (st *scatterState) prepare(q retrieval.Query, opts retrieval.Options, buf *retrieval.RankBuf, n int) {
	st.req = rpc.RetrieveRequest{Query: q, Options: rpc.FromOptions(opts)}
	if q.Scope != nil {
		// A hedge that outlives the query still reads the scope, which
		// the caller may reuse once the query has returned.
		st.scope = *q.Scope
		st.req.Query.Scope = &st.scope
	}
	if cap(st.outs) < n {
		st.outs = make([]shardOut, n)
	}
	st.outs = st.outs[:n]
	kids := buf.Children(n)
	for i := range st.outs {
		st.outs[i] = shardOut{}
		if kids != nil {
			st.outs[i].resp.Rank = &kids[i]
		}
	}
}

// poisonedOut is what a race build leaves in a recycled state's
// outcomes: a success from a generation no shard serves, with a NaN
// match, so a read after release corrupts the ranking visibly.
var poisonedOut = shardOut{resp: rpc.RetrieveResponse{
	Matches:    []retrieval.Match{{Score: math.NaN(), States: []int{-1}}},
	Generation: math.MaxUint64,
	Shard:      -1,
}}

// recycle hands st back for another query, zeroing its request and
// dropping its outcomes (a race build poisons them), unless one of its
// shards launched a hedge: that hedge may still be encoding st.req, so
// st is left to the GC. The outcomes' rankings live in the caller's
// buffer or in fresh storage, never in st.
func (c *Coordinator) recycle(st *scatterState) {
	for i := range st.outs {
		if st.outs[i].hedged {
			return
		}
	}
	st.req, st.scope = rpc.RetrieveRequest{}, retrieval.Scope{}
	for i := range st.outs {
		st.outs[i] = shardOut{}
		if raceEnabled {
			st.outs[i] = poisonedOut
		}
	}
	c.scatters.Put(st)
}

// scatter runs the retry loop of every shard in idxs (nil: every shard)
// concurrently into st's outcomes and returns when all have one. The
// wait is network I/O, not CPU, so the fan-out is one goroutine per
// shard whatever GOMAXPROCS is — a bounded pool would queue the later
// shards' round trips (and start their retry and hedge clocks late)
// behind the earlier ones. The last shard runs on the caller's
// goroutine, which would otherwise only wait.
func (c *Coordinator) scatter(ctx context.Context, st *scatterState, idxs []int) {
	n := len(st.outs)
	if idxs != nil {
		n = len(idxs)
	}
	for k := 0; k < n; k++ {
		i := k
		if idxs != nil {
			i = idxs[k]
		}
		o := &st.outs[i]
		if k == n-1 {
			o.err = c.queryShard(ctx, i, &st.req, o)
			break
		}
		st.wg.Add(1)
		go func() {
			defer st.wg.Done()
			o.err = c.queryShard(ctx, i, &st.req, o)
		}()
	}
	st.wg.Wait()
}

// queryShard runs the retry loop for one shard into o.resp: pick a
// replica, attempt (with hedging), back off with jitter on transient
// failure. A backoff ends at the query's deadline, and no attempt starts
// past it.
func (c *Coordinator) queryShard(ctx context.Context, shardIdx int, req *rpc.RetrieveRequest, o *shardOut) error {
	set := c.sets[shardIdx]
	var lastErr error = errAllEjected
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			wait := c.backoff(attempt)
			if d := c.opts.Deadline; !d.IsZero() {
				wait = min(wait, time.Until(d))
			}
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if err := c.expired(ctx); err != nil {
			return err
		}
		ep := set.pick(time.Now())
		if ep == nil {
			lastErr = errAllEjected
			continue
		}
		// A retry is counted when its request is sent, not when the
		// backoff, the deadline or the ejections end it first.
		if attempt > 0 && c.met != nil {
			c.met.Retries.Inc()
		}
		err := c.attempt(ctx, shardIdx, set, ep, req, o)
		if err == nil {
			return nil
		}
		lastErr = err
		if err := c.expired(ctx); err != nil {
			return err
		}
		if !rpc.IsTransient(err) && !errors.Is(err, errAttemptTimeout) {
			return err
		}
	}
	return lastErr
}

// expired returns what ends the query as a whole: ctx's error, or
// context.DeadlineExceeded once the view's Options.Deadline has passed.
// Either is a truncation, never a shard failure.
func (c *Coordinator) expired(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d := c.opts.Deadline; !d.IsZero() && time.Until(d) <= 0 {
		return context.DeadlineExceeded
	}
	return nil
}

// attempt runs one (possibly hedged) exchange against primary into
// o.resp, on the calling goroutine. A shard with a single replica can
// never hedge, so that is all it costs. With replicas, a timer armed at
// the p95-derived hedge delay launches — only if it fires — a
// speculative second request to another replica on the timer's
// goroutine; the first success wins and the shared cancel abandons the
// loser. The hedge decodes into a fresh response of its own, because an
// abandoned hedge can still be running after attempt returns; a winning
// hedge's answer is copied into o.resp, its matches still in that fresh
// storage. A fired timer marks o.hedged: the hedge may still be reading
// req after the query has returned.
func (c *Coordinator) attempt(ctx context.Context, shardIdx int, set *shardSet, primary *endpoint, req *rpc.RetrieveRequest, o *shardOut) error {
	resp := &o.resp
	if len(set.endpoints) == 1 {
		return c.exchange(ctx, shardIdx, primary, req, resp)
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// hedged carries the timer goroutine's report — the hedge's response,
	// nil when it failed or found no replica: exactly one send once the
	// timer has fired, buffered so an abandoned hedge never blocks.
	hedged := make(chan *rpc.RetrieveResponse, 1)
	timer := time.AfterFunc(c.hedgeDelay(primary), func() {
		var won *rpc.RetrieveResponse
		defer func() { hedged <- won }()
		// Once pickOther hands out an endpoint (possibly half-opening its
		// probe) the exchange must run, so the cancel check comes first.
		if hctx.Err() != nil {
			return
		}
		other := set.pickOther(time.Now(), primary)
		if other == nil {
			return
		}
		if c.met != nil {
			c.met.Hedges.Inc()
		}
		hr := new(rpc.RetrieveResponse)
		if err := c.exchange(hctx, shardIdx, other, req, hr); err == nil {
			won = hr
			cancel() // unblock the primary's goroutine
		}
	})

	err := c.exchange(hctx, shardIdx, primary, req, resp)
	stopped := timer.Stop()
	o.hedged = o.hedged || !stopped
	if stopped || err == nil {
		// No hedge was launched, or the primary answered anyway: a hedge
		// still in flight is abandoned by the deferred cancel and settles
		// its own outcome.
		return err
	}
	if won := <-hedged; won != nil {
		if c.met != nil {
			c.met.HedgeWins.Inc()
		}
		rank := resp.Rank
		*resp = *won
		resp.Rank = rank
		return nil
	}
	return err
}

// exchange runs one request against ep under the attempt cap and
// settles its outcome — metrics, latency history, and above all the
// endpoint's health machine — before returning, on whichever goroutine
// ran it. That holds for an abandoned exchange too (a hedge's loser, a
// probe cut short by the parent deadline): an outcome that never
// reached the health machine would wedge a half-open probe in probing,
// where usable() refuses it forever and — with one replica per shard —
// silently drops the recovered shard from every future query. The
// attempt cap bounds how long an abandoned exchange lives; the shared
// cancel usually ends it at once.
//
// The cap is a deadline value, computed once: now + AttemptTimeout, or
// the query's deadline — the view's Options.Deadline or hctx's, the
// earlier — when that comes first. It sets the server's budget and goes
// to the Transport beside hctx, so an attempt allocates no context of
// its own. An attempt that runs into the attempt cap is
// errAttemptTimeout (retryable); one that runs into the query's
// deadline is context.DeadlineExceeded, a truncation. The answer is
// decoded into resp, read only when the exchange succeeds.
func (c *Coordinator) exchange(hctx context.Context, shardIdx int, ep *endpoint, req *rpc.RetrieveRequest, resp *rpc.RetrieveResponse) error {
	if c.met != nil {
		c.met.ShardRequests.Inc()
	}
	start := time.Now()
	queryDeadline := c.opts.Deadline
	if d, ok := hctx.Deadline(); ok && (queryDeadline.IsZero() || d.Before(queryDeadline)) {
		queryDeadline = d
	}
	deadline := start.Add(c.copts.AttemptTimeout)
	capped := queryDeadline.IsZero() || deadline.Before(queryDeadline)
	if !capped {
		deadline = queryDeadline
	}
	// The server gets 80% of the attempt window as execution budget, so
	// a truncated partial still has time to travel back before the
	// client abandons the attempt. req is shared by every shard and
	// hedge of the query, so the budget travels beside it.
	budget := max(deadline.Sub(start)*8/10, 0)
	err := ep.tr.RetrieveBy(hctx, deadline, budget, req, resp)
	elapsed := time.Since(start)
	if c.met != nil {
		c.met.ShardSeconds.ObserveDuration(elapsed)
	}
	if err != nil && hctx.Err() == nil && !time.Now().Before(deadline) {
		// The attempt cap passed while the query still had budget:
		// retryable. The query's own deadline is not.
		err = errAttemptTimeout
		if !capped {
			err = context.DeadlineExceeded
		}
	}
	if err == nil {
		err = c.identityErr(shardIdx, ep, resp)
	}
	if err != nil {
		c.noteFailure(ep, err)
		return err
	}
	ep.lat.ObserveDuration(elapsed)
	if ep.success(resp.Generation) && c.met != nil {
		c.met.Readmissions.Inc()
	}
	return nil
}

// identityErr rejects a response stamped with the wrong shard identity:
// a mis-wired replica answering for another partition must degrade the
// shard, never merge. Responses without a stamp (OfShards == 0: a
// Transport whose Handler does not stamp) pass — WaitReady still covers
// those at startup.
func (c *Coordinator) identityErr(shardIdx int, ep *endpoint, resp *rpc.RetrieveResponse) error {
	if resp.OfShards == 0 || (resp.Shard == shardIdx && resp.OfShards == len(c.sets)) {
		return nil
	}
	return fmt.Errorf("%w: endpoint %s answered as shard %d of %d, configured as shard %d of %d",
		errShardMismatch, ep.tr.Addr(), resp.Shard, resp.OfShards, shardIdx, len(c.sets))
}

// noteFailure feeds the endpoint's failure detector; only transient
// failures (a down/peer problem) eject — application errors and
// cancellations do not. A half-open probe, however, must resolve on ANY
// outcome: an unresolved probe (cancelled by the parent context, beaten
// by a hedge winner, or answered with the wrong identity) re-ejects so
// the endpoint never sticks in probing.
func (c *Coordinator) noteFailure(ep *endpoint, err error) {
	if !rpc.IsTransient(err) && !errors.Is(err, errAttemptTimeout) {
		if ep.abortProbe(time.Now(), ejectBackoffMax) && c.met != nil {
			c.met.Ejections.Inc()
		}
		return
	}
	if ep.failure(time.Now(), ejectThreshold, c.copts.EjectBackoff, ejectBackoffMax) && c.met != nil {
		c.met.Ejections.Inc()
	}
}

// hedgeDelay derives the speculative-request delay from the endpoint's
// own latency history: p95 clamped to [hedgeMin, HedgeMax], or HedgeMax
// until enough observations accumulated. Hedging at p95 bounds the
// extra load at ~5% of requests while cutting the tail.
func (c *Coordinator) hedgeDelay(ep *endpoint) time.Duration {
	if ep.lat.Count() < hedgeAfterN {
		return c.copts.HedgeMax
	}
	d := time.Duration(ep.lat.Snapshot().Quantile(0.95) * float64(time.Second))
	if d < hedgeMin {
		d = hedgeMin
	}
	if d > c.copts.HedgeMax {
		d = c.copts.HedgeMax
	}
	return d
}

// backoff returns the jittered capped-exponential delay before retry
// `attempt` (attempt >= 1): base·2^(attempt-1) capped at RetryMax, then
// uniformly jittered in [d/2, d) so synchronized retries decorrelate.
func (c *Coordinator) backoff(attempt int) time.Duration {
	d := c.copts.RetryBase << (attempt - 1)
	if d > c.copts.RetryMax {
		d = c.copts.RetryMax
	}
	half := int64(d / 2)
	if half <= 0 {
		return d
	}
	c.rngMu.Lock()
	j := c.rng.Int63n(half)
	c.rngMu.Unlock()
	return time.Duration(half + j)
}

// WaitReady blocks until every shard has at least one endpoint
// reporting READY, or ctx expires. It verifies the identity (shard
// index and split size) of EVERY endpoint that answers Status — not
// just the first READY one per shard — so a mis-wired second replica
// fails fast at startup instead of surfacing as silently merged
// wrong-partition matches when failover or hedging later routes to it.
// Every answering endpoint must also report the same domain, which
// WaitReady records for Domain: a fleet mixing vocabularies would merge
// rankings whose concept ids mean different events.
func (c *Coordinator) WaitReady(ctx context.Context) error {
	var domain, domainAddr string
	for {
		ready := 0
		for i, set := range c.sets {
			anyReady := false
			for _, ep := range set.endpoints {
				sctx, cancel := context.WithTimeout(ctx, time.Second)
				st, err := ep.tr.Status(sctx)
				cancel()
				if err != nil {
					continue
				}
				if st.OfShards != len(c.sets) || st.Shard != i {
					return fmt.Errorf("coord: endpoint %s serves shard %d of %d, configured as shard %d of %d",
						ep.tr.Addr(), st.Shard, st.OfShards, i, len(c.sets))
				}
				if domainAddr == "" {
					domain, domainAddr = st.Domain, ep.tr.Addr()
				} else if st.Domain != domain {
					return fmt.Errorf("coord: endpoint %s serves the %q domain, endpoint %s the %q domain",
						ep.tr.Addr(), st.Domain, domainAddr, domain)
				}
				if st.State == rpc.StateReady {
					anyReady = true
				}
			}
			if anyReady {
				ready++
			}
		}
		if ready == len(c.sets) {
			c.domain.Store(&domain)
			return nil
		}
		select {
		case <-time.After(100 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Domain returns the event vocabulary every shard endpoint reported at
// the last successful WaitReady, or "" when WaitReady has not returned
// nil (or c is not from New).
func (c *Coordinator) Domain() string {
	if c.domain == nil {
		return ""
	}
	if d := c.domain.Load(); d != nil {
		return *d
	}
	return ""
}

// Stats reports the coordinator roll-up for /api/stats.
func (c *Coordinator) Stats() *api.CoordStatsJSON {
	out := &api.CoordStatsJSON{Shards: len(c.sets)}
	if c.met != nil {
		out.Queries = c.met.Queries.Value()
		out.Retries = c.met.Retries.Value()
		out.Hedges = c.met.Hedges.Value()
		out.HedgeWins = c.met.HedgeWins.Value()
		out.Ejections = c.met.Ejections.Value()
		out.Readmissions = c.met.Readmissions.Value()
		out.DegradedQueries = c.met.Degraded.Value()
		out.GenConflicts = c.met.GenConflicts.Value()
	}
	for i, set := range c.sets {
		for _, ep := range set.endpoints {
			state, consec, gen := ep.snapshotState()
			out.Endpoints = append(out.Endpoints, api.CoordEndpointJSON{
				Shard:             i,
				Addr:              ep.tr.Addr(),
				State:             state,
				ConsecutiveErrors: consec,
				Generation:        gen,
			})
		}
	}
	return out
}
