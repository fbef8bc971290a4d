package coord

import (
	"context"
	"sync"
	"time"

	"github.com/videodb/hmmm/internal/obs"
	"github.com/videodb/hmmm/internal/rpc"
)

// Transport is one remote shard replica the coordinator can talk to.
// *rpc.Client is the production implementation; the unit suites use an
// in-process loopback that calls the ShardService directly.
type Transport interface {
	// RetrieveBy answers req with budget as its execution budget
	// (req.BudgetNS is ignored, and req is shared by every concurrent
	// exchange of a query, so it is only read) into resp, which the
	// caller owns: every field but Rank is overwritten, and the matches
	// are carved from resp.Rank — the caller's buffer, which the
	// transport must not touch once the call returns — or from fresh
	// storage when Rank is nil, never from storage the transport reuses.
	// It gives up at deadline — the attempt cap, never later than the
	// query's deadline (the view's Options.Deadline or ctx's own) — or
	// when ctx ends. An attempt that hits the cap returns any error; the
	// coordinator classifies it by the clock. On error resp is not read.
	RetrieveBy(ctx context.Context, deadline time.Time, budget time.Duration, req *rpc.RetrieveRequest, resp *rpc.RetrieveResponse) error
	Status(ctx context.Context) (*rpc.StatusResponse, error)
	Addr() string
	Close()
}

// Endpoint health states (api.CoordEndpointJSON.State).
const (
	stateHealthy = "healthy"
	stateEjected = "ejected"
	stateProbing = "probing"
)

// endpoint is one replica plus its passive-failure-detection state
// machine: healthy → (consecutive transient errors ≥ threshold) →
// ejected with capped-doubling backoff → (backoff elapsed) → probing
// (half-open: exactly one in-flight probe) → readmitted on success,
// re-ejected with doubled backoff on failure.
type endpoint struct {
	tr Transport
	// lat observes this endpoint's request latency; its p95 derives the
	// hedge delay.
	lat *obs.Histogram

	mu           sync.Mutex
	state        string
	consecErrs   int
	backoff      time.Duration
	ejectedUntil time.Time
	lastGen      uint64
}

func newEndpoint(tr Transport) *endpoint {
	return &endpoint{tr: tr, lat: obs.NewHistogram(nil), state: stateHealthy}
}

// success records a completed exchange and readmits a probing endpoint.
// It returns true when the call readmitted an ejected endpoint.
func (e *endpoint) success(gen uint64) (readmitted bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.consecErrs = 0
	e.lastGen = gen
	if e.state != stateHealthy {
		e.state = stateHealthy
		e.backoff = 0
		return true
	}
	return false
}

// failure records a transient error and reports whether this call
// ejected the endpoint. threshold is the consecutive-error limit; base
// and max bound the capped-doubling ejection backoff.
func (e *endpoint) failure(now time.Time, threshold int, base, max time.Duration) (ejected bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.consecErrs++
	switch e.state {
	case stateProbing:
		// The half-open probe failed: back to ejected with a doubled,
		// capped backoff.
		e.backoff *= 2
		if e.backoff > max {
			e.backoff = max
		}
		e.state = stateEjected
		e.ejectedUntil = now.Add(e.backoff)
		return true
	case stateHealthy:
		if e.consecErrs < threshold {
			return false
		}
		e.state = stateEjected
		e.backoff = base
		e.ejectedUntil = now.Add(base)
		return true
	default:
		return false
	}
}

// abortProbe resolves a half-open probe whose outcome is unusable as
// health evidence — the probe was cancelled mid-flight, abandoned after
// a hedge winner, or answered with the wrong shard identity. The
// endpoint reverts to ejected with a doubled, capped backoff instead of
// wedging in probing (where usable() would refuse it forever). Reports
// whether it re-ejected.
func (e *endpoint) abortProbe(now time.Time, max time.Duration) (ejected bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state != stateProbing {
		return false
	}
	e.backoff *= 2
	if e.backoff > max {
		e.backoff = max
	}
	e.state = stateEjected
	e.ejectedUntil = now.Add(e.backoff)
	return true
}

// usable reports whether the endpoint may serve a request now; an
// ejected endpoint whose backoff has elapsed transitions to probing
// (half-open) and is usable exactly once until its probe resolves.
func (e *endpoint) usable(now time.Time) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch e.state {
	case stateHealthy:
		return true
	case stateEjected:
		if now.Before(e.ejectedUntil) {
			return false
		}
		e.state = stateProbing
		return true
	default: // probing: one probe is already in flight
		return false
	}
}

// snapshotState returns the state fields for Stats.
func (e *endpoint) snapshotState() (state string, consec int, gen uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.state, e.consecErrs, e.lastGen
}

// shardSet is one shard's replica group with round-robin selection.
type shardSet struct {
	endpoints []*endpoint

	mu   sync.Mutex
	next int
}

// pick returns a usable endpoint, rotating round-robin so replicas
// share load. When every replica is ejected and still backing off it
// returns nil: the caller fails fast (or backs off) instead of paying a
// doomed dial.
func (s *shardSet) pick(now time.Time) *endpoint {
	s.mu.Lock()
	start := s.next
	s.next = (s.next + 1) % len(s.endpoints)
	s.mu.Unlock()
	for i := 0; i < len(s.endpoints); i++ {
		ep := s.endpoints[(start+i)%len(s.endpoints)]
		if ep.usable(now) {
			return ep
		}
	}
	return nil
}

// pickOther returns a usable endpoint different from ep for hedging, or
// nil when the set has no healthy alternative. It rotates through the
// replicas on the same round-robin cursor as pick, so with three or more
// replicas the hedge load spreads instead of always landing on the first
// healthy alternative (which would double that one replica's traffic
// exactly when the set is already slow).
func (s *shardSet) pickOther(now time.Time, ep *endpoint) *endpoint {
	s.mu.Lock()
	start := s.next
	s.next = (s.next + 1) % len(s.endpoints)
	s.mu.Unlock()
	for i := 0; i < len(s.endpoints); i++ {
		other := s.endpoints[(start+i)%len(s.endpoints)]
		if other != ep && other.usable(now) {
			return other
		}
	}
	return nil
}
