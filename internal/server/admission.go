package server

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"github.com/videodb/hmmm/internal/api"
	"github.com/videodb/hmmm/internal/obs"
)

// Two-lane admission defaults (see Config.FastLaneCost / HeavyQueue).
const (
	// DefaultHeavyQueue bounds how many heavy queries may wait for a
	// heavy-lane slot before further arrivals are shed immediately.
	DefaultHeavyQueue = 64
	// defaultQueueWait caps the heavy-queue wait for queries with no
	// deadline at all; with a deadline the allowance is half the budget
	// (see admit), so the shed response always arrives while the client
	// is still listening.
	defaultQueueWait = 5 * time.Second
)

// defaultLaneSlots sizes the two lanes when MaxInflight is unset: enough
// concurrency to keep every CPU busy with headroom for coalesce fan-in,
// without letting heavy queries monopolize the machine.
func defaultLaneSlots() int {
	n := 4 * runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	return n
}

// shedError is the typed rejection of the admission lanes: the handler
// maps it to 503 with the Retry-After hint, for the leader and every
// coalesced waiter alike.
type shedError struct {
	msg        string
	retryAfter int // seconds
}

func (e *shedError) Error() string { return e.msg }

// shedRng backs shedRetryAfter; one process-wide source is enough — the
// hint is advisory and a handful of nanoseconds of lock hold per shed is
// noise next to writing the 503 itself.
var shedRng = struct {
	mu sync.Mutex
	r  *rand.Rand
}{r: rand.New(rand.NewSource(0x526574))}

// shedRetryAfter jitters the Retry-After hint attached to 503 sheds
// across 1-3 seconds. A fixed hint tells every client shed in the same
// overload instant to come back in the same instant — re-creating the
// herd the ceiling just rejected. Spreading the hint decorrelates the
// re-arrivals at the cost of at most two extra seconds of client wait.
func shedRetryAfter() int {
	shedRng.mu.Lock()
	defer shedRng.mu.Unlock()
	return 1 + shedRng.r.Intn(3)
}

// lane is one admission class: a slot semaphore plus its metrics.
type lane struct {
	name     string
	slots    chan struct{}
	inflight *obs.Gauge
	admitted *obs.Counter
	shed     *obs.Counter
}

// laneController is the priority-aware admission gate for /api/query. A
// query's estimated lattice cost (Engine.EstimateCost — posting lengths
// × steps × beam, computed before any search work) classifies it:
//
//   - cost <= fastCost: the fast lane. Cheap queries — the
//     latency-sensitive bulk of interactive traffic — only ever wait for
//     one of the fast lane's own slots, never behind a heavy query's
//     multi-second search.
//   - cost > fastCost: the heavy lane. At most cap(heavy.slots) heavy
//     searches run concurrently; up to queueCap more wait in a bounded
//     queue, and arrivals beyond that are shed immediately with 503 +
//     Retry-After. Queued waiters are also shed before their response
//     could become useless: the wait allowance is half the query's
//     execution budget, so the 503 reaches the client well before the
//     deadline it set would have expired while the query sat in queue.
//
// The controller replaces the single MaxInflight semaphore for the query
// route (other routes keep the generic gate): under a mixed workload one
// ceiling either starves cheap queries behind heavy ones or admits
// enough heavy ones to thrash; two lanes bound each class separately.
type laneController struct {
	fastCost int
	fast     lane
	heavy    lane
	// queue bounds heavy waiters; queued is its live depth gauge.
	queue  chan struct{}
	queued *obs.Gauge
}

func newLaneController(fastCost, fastSlots, heavySlots, queueCap int, m *serverMetrics) *laneController {
	return &laneController{
		fastCost: fastCost,
		fast: lane{
			name:     "fast",
			slots:    make(chan struct{}, fastSlots),
			inflight: m.laneInflight.With("fast"),
			admitted: m.laneAdmitted.With("fast"),
			shed:     m.laneShed.With("fast"),
		},
		heavy: lane{
			name:     "heavy",
			slots:    make(chan struct{}, heavySlots),
			inflight: m.laneInflight.With("heavy"),
			admitted: m.laneAdmitted.With("heavy"),
			shed:     m.laneShed.With("heavy"),
		},
		queue:  make(chan struct{}, queueCap),
		queued: m.laneQueued,
	}
}

// waitAllowance converts a query's execution budget into the longest
// time it may spend waiting for admission: half the budget, so a shed
// decision still reaches a deadline-bearing client with time to retry
// elsewhere. Without a budget the allowance is defaultQueueWait.
func waitAllowance(budget time.Duration) time.Duration {
	if budget <= 0 {
		return defaultQueueWait
	}
	return budget / 2
}

// admit blocks until the query's lane grants a slot and returns the
// lane, whose release frees it, or returns a *shedError (mapped to 503
// + Retry-After) / the context error. cost is the query's estimated
// lattice work; budget its would-be execution deadline — the deadline
// itself must be started by the caller only after admit returns, so
// queue wait never burns search budget.
func (lc *laneController) admit(ctx context.Context, cost int, budget time.Duration) (*lane, error) {
	if cost <= lc.fastCost {
		return lc.acquire(ctx, &lc.fast, budget)
	}
	// Heavy: reserve a bounded queue position first; a full queue means
	// the backlog is already hopeless and waiting would only add to it.
	select {
	case lc.queue <- struct{}{}:
	default:
		lc.heavy.shed.Inc()
		return nil, &shedError{
			msg: fmt.Sprintf("heavy-query queue full (%d waiting), retry shortly",
				cap(lc.queue)),
			retryAfter: shedRetryAfter(),
		}
	}
	lc.queued.Inc()
	l, err := lc.acquire(ctx, &lc.heavy, budget)
	lc.queued.Dec()
	<-lc.queue
	return l, err
}

// acquire takes one slot of l, waiting at most the budget's allowance,
// and returns l.
func (lc *laneController) acquire(ctx context.Context, l *lane, budget time.Duration) (*lane, error) {
	select {
	case l.slots <- struct{}{}:
		return l.granted(), nil
	default:
	}
	timer := time.NewTimer(waitAllowance(budget))
	defer timer.Stop()
	select {
	case l.slots <- struct{}{}:
		return l.granted(), nil
	case <-ctx.Done():
		l.shed.Inc()
		return nil, ctx.Err()
	case <-timer.C:
		l.shed.Inc()
		return nil, &shedError{
			msg: fmt.Sprintf("%s lane saturated (%d in flight), retry shortly",
				l.name, cap(l.slots)),
			retryAfter: shedRetryAfter(),
		}
	}
}

// granted counts a slot just taken of l and returns l.
func (l *lane) granted() *lane {
	l.admitted.Inc()
	l.inflight.Inc()
	return l
}

// release frees the slot admit granted.
func (l *lane) release() {
	l.inflight.Dec()
	<-l.slots
}

// lanes snapshots the controller for /api/health and /api/stats.
func (lc *laneController) lanes() *api.LanesJSON {
	if lc == nil {
		return nil
	}
	return &api.LanesJSON{
		FastLaneCost: lc.fastCost,
		Fast: api.LaneStatsJSON{
			Inflight: int(lc.fast.inflight.Value()),
			Capacity: cap(lc.fast.slots),
			Admitted: lc.fast.admitted.Value(),
			Shed:     lc.fast.shed.Value(),
		},
		Heavy: api.LaneStatsJSON{
			Inflight: int(lc.heavy.inflight.Value()),
			Capacity: cap(lc.heavy.slots),
			Queued:   int(lc.queued.Value()),
			QueueCap: cap(lc.queue),
			Admitted: lc.heavy.admitted.Value(),
			Shed:     lc.heavy.shed.Value(),
		},
	}
}
