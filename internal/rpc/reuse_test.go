package rpc

import (
	"bytes"
	"context"
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/retrieval/retrievaltest"
	"github.com/videodb/hmmm/internal/shard"
	"github.com/videodb/hmmm/internal/videomodel"
)

// exchangeRaw writes req on conn and returns the reply frame's bytes.
func exchangeRaw(t *testing.T, conn net.Conn, fb *frameBufs, req *RetrieveRequest) []byte {
	t.Helper()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := fb.writeFrame(conn, tagRetrieveReq, req); err != nil {
		t.Fatalf("write: %v", err)
	}
	tag, body, err := fb.readFrame(conn)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return append([]byte{tag}, body...)
}

// TestConnectionReuseAnswersLikeAFreshServer sends one connection a
// three-step scoped request, a one-step unscoped one and a step with
// only a negated event, twice over: every reply must be byte-identical
// to a fresh server's on a fresh connection. A field the reused request
// kept from its predecessor — a Scope, a step, a positive event under
// the negation — or a ranking the reused response kept would show here.
func TestConnectionReuseAnswersLikeAFreshServer(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 21, Videos: 6})
	shards, err := shard.Split(m, 2)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	svc, err := NewShardService(shards[0], 0, len(shards), retrieval.Options{}, 3)
	if err != nil {
		t.Fatalf("shard service: %v", err)
	}
	present := retrievaltest.PresentEvents(m)
	e0, e1 := present[0], present[len(present)-1]
	scoped := retrieval.NewQuery(e0, e1, e0)
	scoped.Scope = &retrieval.Scope{Video: shards[0].Model.VideoIDs[1]}
	reqs := []*RetrieveRequest{
		{Query: scoped, Options: QueryOptions{TopK: 20, CrossVideo: true}},
		{Query: retrieval.NewQuery(e1), Options: QueryOptions{TopK: 3}},
		{Query: retrieval.Query{Steps: []retrieval.Step{{Not: []videomodel.Event{e0}}}}},
	}

	conn, err := net.Dial("tcp", startStub(t, svc))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	var fb frameBufs
	for round := 0; round < 2; round++ {
		for i, req := range reqs {
			got := exchangeRaw(t, conn, &fb, req)
			fresh, err := net.Dial("tcp", startStub(t, svc))
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			var ffb frameBufs
			want := exchangeRaw(t, fresh, &ffb, req)
			fresh.Close()
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d request %d: the reused connection answered\n %x\nwant a fresh server's\n %x", round, i, got, want)
			}
			if i == 0 && (got[0] != tagRetrieveResp || len(got) < 200) {
				t.Fatalf("the scoped request was answered with a %c frame of %d bytes, want a ranking", got[0], len(got))
			}
			if i == 2 && got[0] != tagError {
				t.Fatalf("a step with only a negated event was answered with a %c frame, want a refusal", got[0])
			}
		}
	}
}

// TestLargeRequestNotRetained decodes a 2¹⁸-event request and a
// 10,000-match ranking into one server connection's buffers: after the
// exchange, neither is still held (as TestLargeFrameDoesNotPinBuffers
// checks the frame buffers), while a small one stays for reuse.
func TestLargeRequestNotRetained(t *testing.T) {
	c := new(connBufs)
	c.resp.Rank = &c.rank
	small := frameOf(t, tagRetrieveReq, fullRequest())
	big := frameOf(t, tagRetrieveReq, &RetrieveRequest{Query: retrieval.Query{Steps: []retrieval.Step{{Events: make([]videomodel.Event, 1<<18)}}}})
	for _, tc := range []struct {
		frame []byte
		kept  bool
	}{{small, true}, {big, false}} {
		if err := decodeFrame(tc.frame[5:], &c.req); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if c.trim(); (c.req.ids != nil) != tc.kept || (c.req.Query.Steps != nil) != tc.kept {
			t.Fatalf("a %d-byte request: trim kept ids %d / steps %d (cap %d B), want kept = %v",
				len(tc.frame), cap(c.req.ids), cap(c.req.Query.Steps), maxKeptBuf, tc.kept)
		}
	}

	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 21, Videos: 40, MaxShots: 60})
	e, err := retrieval.NewEngine(m, retrieval.Options{TopK: 10_000, Beam: 50, CrossVideo: true})
	if err != nil {
		t.Fatal(err)
	}
	ev := retrievaltest.PresentEvents(m)[0]
	q := retrieval.NewQuery(ev, ev, ev, ev)
	res, err := e.RetrieveInto(context.Background(), q, c.resp.Rank)
	if err != nil {
		t.Fatal(err)
	}
	c.resp.Matches = res.Matches // as ShardService answers
	if size := c.rank.Size(); size <= maxKeptBuf {
		t.Fatalf("the ranking holds only %d B, not past the %d B cap", size, maxKeptBuf)
	}
	// The response's matches alias the ranking: they must go too.
	if c.trim(); c.rank.Size() != 0 || c.resp.Matches != nil || c.resp.Rank != &c.rank {
		t.Fatalf("trim kept a %d B ranking (%d matches still answered)", c.rank.Size(), len(c.resp.Matches))
	}
}

// maxShardExchangeAllocs is the allocation ceiling of one warm loopback
// exchange with a ShardService server: the client's encode and its
// decode into a kept RankBuf, and the whole server — request decode,
// retrieval, ranking and response encode. Measured with go1.24.0 on
// linux/amd64: 2, the client's two-part cancellation watcher; 5% slack
// is less than one allocation (7 while the client decoded every answer
// into fresh storage, 18 while every exchange also built the server's
// request, response and ranking anew and the client boxed its
// response).
const maxShardExchangeAllocs = 2

// TestShardServerRetrieveAllocs pins a warm exchange with a shard
// server, so a per-request request, response or ranking, on either side,
// cannot quietly return.
func TestShardServerRetrieveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 38, Videos: 6})
	shards, err := shard.Split(m, 2)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	_, cl := startShard(t, shards[1], 1, len(shards), 1)
	req := &RetrieveRequest{Query: retrievaltest.Queries(m)[3], Options: QueryOptions{TopK: 10}}
	// The coordinator runs every exchange under a query deadline and
	// decodes into the response its shard owns, carving the ranking from
	// the child buffer the caller keeps for the shard.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var rank retrieval.RankBuf
	resp := RetrieveResponse{Rank: &rank}
	run := func() {
		if err := cl.RetrieveBy(ctx, time.Now().Add(time.Minute), time.Minute, req, &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Matches) == 0 || resp.Cost.Truncated {
			t.Fatalf("exchange: %d matches, cost %+v", len(resp.Matches), resp.Cost)
		}
	}
	run() // dial and warm the engine and the connection
	if got := testing.AllocsPerRun(200, run); got > maxShardExchangeAllocs {
		t.Errorf("one shard exchange allocates %.1f times, ceiling %d (measured with go1.24.0, running %s)",
			got, maxShardExchangeAllocs, runtime.Version())
	} else {
		t.Logf("one shard exchange allocates %.1f times (ceiling %d)", got, maxShardExchangeAllocs)
	}
}
