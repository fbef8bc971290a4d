package main

import (
	"bytes"
	"context"
	"net/http"
	"sync"
	"time"

	"github.com/videodb/hmmm/internal/api"
	"github.com/videodb/hmmm/internal/client"
)

// expectation is what a scheduled pattern's response must be, fixed by
// the correctness gate before anything is timed.
type expectation struct {
	// body is the exact response the gate verified against the oracle.
	// Static deployments must keep answering with these bytes: the
	// ranking, its scores, the cost block and the absence of truncated /
	// degraded_shards are all in them. nil on live_mixed, where the
	// archive grows under the querier and only the shape is checked.
	body []byte
	// cost is the work the gate-time response reported: exact counts
	// that must repeat from run to run.
	cost api.CostJSON
}

var (
	truncatedMark = []byte(`"truncated":true`)
	matchesMark   = []byte(`"matches":[{`)
)

// ok reports whether a 200 response body is a correct answer.
func (x *expectation) ok(body []byte) bool {
	if x.body != nil {
		return bytes.Equal(body, x.body)
	}
	return bytes.Contains(body, matchesMark) && !bytes.Contains(body, truncatedMark)
}

// phase is the record of one closed-loop phase.
type phase struct {
	start     time.Time
	dur       time.Duration
	samples   []sample
	attempted int
	failed    int
}

// querier is the single closed-loop client: it walks the cyclic
// schedule, sending the next request only when the previous response has
// been read and checked.
type querier struct {
	d     *deployment
	sched []entry
	next  int
	buf   bytes.Buffer
	// after, when set (traced runs), is called with each completed
	// round trip before the next request is sent.
	after func(query int, e *entry, start, end time.Time)
}

// run drives the schedule for dur, appending one sample per correct
// response to samples (preallocated by the caller).
func (q *querier) run(dur time.Duration, samples []sample) *phase {
	p := &phase{start: time.Now(), dur: dur, samples: samples[:0]}
	url := q.d.url + "/api/query"
	for time.Since(p.start) < dur {
		e := &q.sched[q.next%len(q.sched)]
		t0 := time.Now()
		status, err := post(q.d.client, url, e.body, &q.buf)
		t1 := time.Now()
		p.attempted++
		if err == nil && status == http.StatusOK && e.expect.ok(q.buf.Bytes()) {
			p.samples = append(p.samples, sample{at: int64(t1.Sub(p.start)), lat: int64(t1.Sub(t0))})
		} else {
			p.failed++
		}
		if q.after != nil {
			q.after(p.attempted-1, e, t0, t1)
		}
		q.next++
	}
	return p
}

// writer is live_mixed's second connection: it paces POST /api/ingest at
// a fixed rate, each send waiting for the previous ack (a slow ack
// delays the next send; the writer never bursts to catch up).
type writer struct {
	api    *client.Client
	videos []api.IngestRequest
	rate   int

	stop chan struct{}
	done sync.WaitGroup

	// ops is written by the writer goroutine; read after halt returns.
	ops []ingestOp
}

// ingestOp is one POST /api/ingest: ok means a 200 ack, which promises
// the video is journaled and queryable.
type ingestOp struct {
	at      time.Time
	lat     time.Duration
	ok      bool
	videoID int
}

func startWriter(url string, videos []api.IngestRequest, rate int) *writer {
	w := &writer{videos: videos, rate: rate, stop: make(chan struct{}), ops: make([]ingestOp, 0, len(videos))}
	conn := newClient()
	w.api = client.New(url, conn)
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		defer conn.CloseIdleConnections()
		w.loop()
	}()
	return w
}

func (w *writer) loop() {
	interval := time.Second / time.Duration(w.rate)
	timer := time.NewTimer(0)
	defer timer.Stop()
	for _, video := range w.videos {
		select {
		case <-w.stop:
			return
		case <-timer.C:
		}
		t0 := time.Now()
		resp, err := w.api.Ingest(context.Background(), video)
		t1 := time.Now()
		op := ingestOp{at: t1, lat: t1.Sub(t0), ok: err == nil}
		if err == nil {
			op.videoID = resp.VideoID
		}
		w.ops = append(w.ops, op)
		timer.Reset(max(0, interval-time.Since(t0)))
	}
}

// halt stops the writer and waits for its in-flight request to finish.
func (w *writer) halt() {
	close(w.stop)
	w.done.Wait()
}
