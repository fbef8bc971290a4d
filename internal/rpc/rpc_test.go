package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/retrieval/retrievaltest"
	"github.com/videodb/hmmm/internal/shard"
)

// startShard boots a Server over shard index of a k-way split on a
// loopback listener and returns a connected client. Everything is torn
// down via t.Cleanup, and the goroutine-leak check in TestMain keeps
// the teardown honest.
func startShard(t *testing.T, sh *shard.Shard, index, of int, gen uint64) (*Server, *Client) {
	t.Helper()
	svc, err := NewShardService(sh, index, of, retrieval.Options{}, gen)
	if err != nil {
		t.Fatalf("shard service: %v", err)
	}
	srv := NewServer(svc, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	cl := NewClient(ln.Addr().String(), time.Second, 2)
	t.Cleanup(func() {
		cl.Close()
		srv.Close()
	})
	return srv, cl
}

// TestRetrieveBitIdentical is the loopback differential: every query of
// the corpus answered over the wire must be bit-identical to the same
// shard engine answered in-process — the codec carries float64 by its
// bits, and the ShardService remap is the Group remap.
func TestRetrieveBitIdentical(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 11, Videos: 5})
	shards, err := shard.Split(m, 2)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	sh := shards[0]
	_, cl := startShard(t, sh, 0, len(shards), 7)

	eng, err := retrieval.NewEngine(sh.Model, retrieval.Options{})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	for qi, q := range retrievaltest.Queries(m) {
		if q.Scope != nil {
			continue // the scoped query's video may live in the other shard
		}
		want, err := eng.Retrieve(q)
		if err != nil {
			t.Fatalf("query %d: local: %v", qi, err)
		}
		retrievaltest.Lift(want.Matches, sh.Offset)
		got, err := cl.Retrieve(context.Background(), &RetrieveRequest{Query: q})
		if err != nil {
			t.Fatalf("query %d: remote: %v", qi, err)
		}
		if got.Generation != 7 {
			t.Fatalf("query %d: generation = %d, want 7", qi, got.Generation)
		}
		retrievaltest.RequireSameMatches(t, "loopback", want.Matches, got.Matches)
		if got.Cost != want.Cost {
			t.Fatalf("query %d: cost = %+v, want %+v", qi, got.Cost, want.Cost)
		}
	}

	// What no engine produces but the wire must still carry exactly: ±0,
	// ±Inf, NaN payloads, denormals, and ids at the edge of the wire
	// width, through a real client and server.
	specials := specialsResponse()
	stub := NewClient(startStub(t, stubHandler{specials}), time.Second, 1)
	defer stub.Close()
	got, err := stub.Retrieve(context.Background(), &RetrieveRequest{Query: retrievaltest.Queries(m)[0]})
	if err != nil {
		t.Fatalf("specials: %v", err)
	}
	sameBits(t, "specials over loopback", specials, got)
}

func TestStatusAndDraining(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 3})
	shards, err := shard.Split(m, 1)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	srv, cl := startShard(t, shards[0], 0, 1, 42)

	st, err := cl.Status(context.Background())
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.State != StateReady || st.Generation != 42 || st.OfShards != 1 {
		t.Fatalf("status = %+v", st)
	}
	if st.Videos == 0 || st.States == 0 {
		t.Fatalf("status reports empty shard: %+v", st)
	}

	srv.Drain()
	st, err = cl.Status(context.Background())
	if err != nil {
		t.Fatalf("status while draining: %v", err)
	}
	if st.State != StateDraining {
		t.Fatalf("state = %q, want DRAINING", st.State)
	}
	q := retrievaltest.Queries(m)[0]
	_, err = cl.Retrieve(context.Background(), &RetrieveRequest{Query: q})
	var se *ServerError
	if !errors.As(err, &se) || se.Code != CodeDraining {
		t.Fatalf("retrieve while draining: err = %v, want draining ServerError", err)
	}
	if !IsTransient(err) {
		t.Fatal("draining must classify as transient (coordinator retries another replica)")
	}
}

func TestInvalidQueryIsPermanentError(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 5})
	shards, _ := shard.Split(m, 1)
	_, cl := startShard(t, shards[0], 0, 1, 1)

	_, err := cl.Retrieve(context.Background(), &RetrieveRequest{}) // empty query
	var se *ServerError
	if !errors.As(err, &se) || se.Code != CodeBadRequest {
		t.Fatalf("err = %v, want bad_request ServerError", err)
	}
	if IsTransient(err) {
		t.Fatal("bad_request must not classify as transient")
	}
}

// TestCoarseMismatchRefused: a coarse budget sent to a shard server
// started without the coarse index is refused as bad_request naming both
// flags; a budget of 0 sent to a server with the index is served as
// exact search, ranking like an exact group over the same shard; a
// matching setting is served.
func TestCoarseMismatchRefused(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 6, Videos: 6})
	shards, _ := shard.Split(m, 1)
	exact, err := shard.NewGroup(m, 1, retrieval.Options{}, shard.GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := retrievaltest.Queries(m)[0]
	want, err := exact.Retrieve(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ server, request int }{{0, 16}, {16, 0}, {0, 0}, {16, 8}} {
		svc, err := NewShardService(shards[0], 0, 1, retrieval.Options{CoarseCandidates: tc.server}, 1)
		if err != nil {
			t.Fatal(err)
		}
		req := &RetrieveRequest{Query: q, Options: QueryOptions{CoarseCandidates: tc.request}}
		resp, err := svc.Retrieve(context.Background(), req)
		if tc.server == 0 && tc.request > 0 {
			var se *ServerError
			if !errors.As(err, &se) || se.Code != CodeBadRequest ||
				!strings.Contains(se.Msg, "hmmmd -coarse-candidates") || !strings.Contains(se.Msg, "hmmm-shardd -coarse-candidates") {
				t.Errorf("server %d, request %d: err = %v, want bad_request naming both flags", tc.server, tc.request, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("server %d, request %d: %v", tc.server, tc.request, err)
			continue
		}
		if tc.request == 0 {
			retrievaltest.RequireSameMatches(t, fmt.Sprintf("server %d, request 0", tc.server), want.Matches, resp.Matches)
		}
	}
}

// blockingHandler parks retrievals until released — the unit-level
// stand-in for a blackholed server.
type blockingHandler struct {
	release chan struct{}
	entered chan struct{}
}

func (h *blockingHandler) RetrieveInto(ctx context.Context, _ *RetrieveRequest, resp *RetrieveResponse) error {
	select {
	case h.entered <- struct{}{}:
	default:
	}
	select {
	case <-h.release:
		*resp = RetrieveResponse{}
		return nil
	case <-ctx.Done():
		return &ServerError{Code: CodeInternal, Msg: ctx.Err().Error()}
	}
}

func (h *blockingHandler) Status() StatusResponse { return StatusResponse{State: StateReady} }

func TestClientCancellation(t *testing.T) {
	h := &blockingHandler{release: make(chan struct{}), entered: make(chan struct{}, 1)}
	srv := NewServer(h, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	defer close(h.release)

	cl := NewClient(ln.Addr().String(), time.Second, 2)
	defer cl.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := cl.Retrieve(ctx, &RetrieveRequest{})
		done <- err
	}()
	<-h.entered
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not unblock the request")
	}
	if n := idleConns(cl); n != 0 {
		t.Fatalf("a cancelled exchange parked its connection (%d idle)", n)
	}
}

// idleConns returns the size of cl's idle pool.
func idleConns(cl *Client) int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return len(cl.idle)
}

// cancelHandler cancels the calling client's context, then answers: the
// answer reaches a client whose poke has already started.
type cancelHandler struct{ cancels chan context.CancelFunc }

func (h *cancelHandler) RetrieveInto(_ context.Context, _ *RetrieveRequest, resp *RetrieveResponse) error {
	(<-h.cancels)()
	*resp = RetrieveResponse{}
	return nil
}

func (h *cancelHandler) Status() StatusResponse { return StatusResponse{State: StateReady} }

// countingListener counts accepted connections: the client's dials.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// TestCancelledExchangeNeverParks pins the park rule: once a context is
// cancelled its poke has started and may move the connection deadline
// at any later moment, so the connection is closed even when the answer
// arrived intact. Over 100 such calls the idle pool stays empty, and
// the next call dials once and succeeds — it finds no poisoned
// connection to fail on and redial past.
func TestCancelledExchangeNeverParks(t *testing.T) {
	h := &cancelHandler{cancels: make(chan context.CancelFunc, 1)}
	srv := NewServer(h, nil)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ln := &countingListener{Listener: inner}
	go srv.Serve(ln)
	defer srv.Close()
	cl := NewClient(ln.Addr().String(), time.Second, 2)
	defer cl.Close()

	const calls = 100
	for i := 0; i < calls; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		h.cancels <- cancel
		// The answer may beat the poke to the read, or lose to it.
		if _, err := cl.Retrieve(ctx, &RetrieveRequest{}); err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("call %d: %v", i, err)
		}
		if n := idleConns(cl); n != 0 {
			t.Fatalf("call %d parked a connection its cancelled context may poke (%d idle)", i, n)
		}
	}
	h.cancels <- func() {}
	if _, err := cl.Retrieve(context.Background(), &RetrieveRequest{}); err != nil {
		t.Fatalf("call after the cancelled ones: %v", err)
	}
	if got := ln.accepted.Load(); got != calls+1 {
		t.Fatalf("%d dials for %d calls, want one each", got, calls+1)
	}
}

// TestRetrieveByCap pins the attempt cap RetrieveBy takes: with no
// context deadline, a request the server never answers fails at the cap
// with an i/o timeout and its connection is closed. When the context's
// deadline comes no later than the cap, the context bounds the exchange
// and the call reports context.DeadlineExceeded.
func TestRetrieveByCap(t *testing.T) {
	h := &blockingHandler{release: make(chan struct{}), entered: make(chan struct{}, 1)}
	srv := NewServer(h, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	defer close(h.release)
	cl := NewClient(ln.Addr().String(), time.Second, 2)
	defer cl.Close()

	start := time.Now()
	err = cl.RetrieveBy(context.Background(), start.Add(50*time.Millisecond), 0, &RetrieveRequest{}, new(RetrieveResponse))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("capped call: err = %v, want an i/o timeout", err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond || elapsed > 5*time.Second {
		t.Fatalf("capped call returned after %v, want the 50ms cap", elapsed)
	}
	if n := idleConns(cl); n != 0 {
		t.Fatalf("a timed-out exchange parked its connection (%d idle)", n)
	}

	for _, capAfter := range []time.Duration{0, time.Second} {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		d, _ := ctx.Deadline()
		err := cl.RetrieveBy(ctx, d.Add(capAfter), 0, &RetrieveRequest{}, new(RetrieveResponse))
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("cap %v after the context deadline: err = %v, want context.DeadlineExceeded", capAfter, err)
		}
	}
}

func TestClientDeadline(t *testing.T) {
	h := &blockingHandler{release: make(chan struct{}), entered: make(chan struct{}, 1)}
	srv := NewServer(h, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	defer close(h.release)

	cl := NewClient(ln.Addr().String(), time.Second, 2)
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err = cl.Retrieve(ctx, &RetrieveRequest{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestPooledConnRetry parks a connection, has the server close it, and
// checks the next call transparently redials instead of failing.
func TestPooledConnRetry(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 8})
	shards, _ := shard.Split(m, 1)
	srv, cl := startShard(t, shards[0], 0, 1, 1)

	q := retrievaltest.Queries(m)[0]
	if _, err := cl.Retrieve(context.Background(), &RetrieveRequest{Query: q}); err != nil {
		t.Fatalf("first call: %v", err)
	}
	// Close the server's side of every tracked connection; the parked
	// client connection is now dead.
	srv.mu.Lock()
	for c := range srv.conns {
		c.Close()
	}
	srv.mu.Unlock()
	// Give the close a moment to propagate through loopback.
	time.Sleep(10 * time.Millisecond)
	if _, err := cl.Retrieve(context.Background(), &RetrieveRequest{Query: q}); err != nil {
		t.Fatalf("call after server closed pooled conn: %v", err)
	}
}

func TestServerCloseUnblocksConnections(t *testing.T) {
	h := &blockingHandler{release: make(chan struct{}), entered: make(chan struct{}, 1)}
	srv := NewServer(h, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	close(h.release) // handler returns immediately; the conn loop blocks in readFrame

	cl := NewClient(ln.Addr().String(), time.Second, 2)
	defer cl.Close()
	if _, err := cl.Retrieve(context.Background(), &RetrieveRequest{}); err != nil {
		t.Fatalf("retrieve: %v", err)
	}

	done := make(chan struct{})
	go func() {
		srv.Close() // must close the idle server conn and join its goroutine
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close hung on an idle connection")
	}
}

// TestCloseCancelsUnbudgetedRequest pins bounded shutdown: a retrieval
// with no BudgetNS runs under the server's base context, so Close (the
// shutdown grace path in hmmm-shardd) cancels it instead of waiting on
// it forever.
func TestCloseCancelsUnbudgetedRequest(t *testing.T) {
	h := &blockingHandler{release: make(chan struct{}), entered: make(chan struct{}, 1)}
	srv := NewServer(h, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)

	cl := NewClient(ln.Addr().String(), time.Second, 2)
	defer cl.Close()
	done := make(chan error, 1)
	go func() {
		// No budget: the handler blocks until its context cancels —
		// h.release is never closed, so only Close can unblock it.
		_, err := cl.Retrieve(context.Background(), &RetrieveRequest{})
		done <- err
	}()
	<-h.entered

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close hung on an unbudgeted in-flight request")
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("client call did not return after server close")
	}
}

func TestFrameRoundTripAndLimits(t *testing.T) {
	var buf bytes.Buffer
	var fb frameBufs
	want := RetrieveResponse{Generation: 9, Cost: retrieval.Cost{SimEvals: 3}}
	if err := fb.writeFrame(&buf, tagRetrieveResp, &want); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	tag, body, err := fb.readFrame(&buf)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if tag != tagRetrieveResp {
		t.Fatalf("tag = %q", tag)
	}
	var got RetrieveResponse
	if err := decodeFrame(body, &got); err != nil {
		t.Fatalf("decodeFrame: %v", err)
	}
	if got.Generation != 9 || got.Cost.SimEvals != 3 {
		t.Fatalf("got %+v", got)
	}

	// Floats travel as their bits and ints at full width: the values a
	// text or tolerance-based encoding would lose come back bitwise
	// equal, math.MaxInt counters included.
	specials := specialsResponse()
	buf.Reset()
	if err := fb.writeFrame(&buf, tagRetrieveResp, specials); err != nil {
		t.Fatalf("writeFrame specials: %v", err)
	}
	if _, body, err = fb.readFrame(&buf); err != nil {
		t.Fatalf("readFrame specials: %v", err)
	}
	var back RetrieveResponse
	if err := decodeFrame(body, &back); err != nil {
		t.Fatalf("decodeFrame specials: %v", err)
	}
	sameBits(t, "specials", specials, &back)
	// An id that does not fit the 32-bit wire width is an encode error,
	// never a wrap.
	wide := RetrieveResponse{Matches: []retrieval.Match{{States: []int{math.MaxInt}}}}
	if err := fb.writeFrame(io.Discard, tagRetrieveResp, &wide); err == nil || !strings.Contains(err.Error(), "wire width") {
		t.Fatalf("math.MaxInt state id: err = %v, want a wire-width encode error", err)
	}

	// Oversized length prefix must be rejected before allocation.
	var big bytes.Buffer
	hdr := make([]byte, 4)
	binary.BigEndian.PutUint32(hdr, MaxFrame+1)
	big.Write(hdr)
	if _, _, err := fb.readFrame(&big); err == nil || !strings.Contains(err.Error(), "MaxFrame") {
		t.Fatalf("oversized frame: err = %v", err)
	}

	// A frame torn mid-body reads as unexpected EOF — transient.
	var torn bytes.Buffer
	binary.BigEndian.PutUint32(hdr, 100)
	torn.Write(hdr)
	torn.WriteString("short")
	if _, _, err := fb.readFrame(&torn); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn frame: err = %v, want unexpected EOF", err)
	}
}

func TestIsTransient(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"canceled", context.Canceled, false},
		{"deadline", context.DeadlineExceeded, false},
		{"eof", io.EOF, true},
		{"unexpected-eof", io.ErrUnexpectedEOF, true},
		{"conn-refused", &net.OpError{Op: "dial", Err: syscall.ECONNREFUSED}, true},
		{"conn-reset", &net.OpError{Op: "read", Err: syscall.ECONNRESET}, true},
		{"io-deadline", os.ErrDeadlineExceeded, true},
		{"net-closed", net.ErrClosed, true},
		{"draining", &ServerError{Code: CodeDraining}, true},
		{"bad-request", &ServerError{Code: CodeBadRequest}, false},
		{"internal", &ServerError{Code: CodeInternal}, false},
		{"plain", errors.New("boom"), false},
	}
	for _, tc := range cases {
		if got := IsTransient(tc.err); got != tc.want {
			t.Errorf("IsTransient(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestBudgetTruncates sends a vanishing execution budget and expects a
// committed (possibly empty) partial ranking with Truncated set — not
// an error: deadlines degrade, they don't fail.
func TestBudgetTruncates(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 13, Videos: 6, MaxShots: 20})
	shards, _ := shard.Split(m, 1)
	_, cl := startShard(t, shards[0], 0, 1, 1)

	q := retrievaltest.Queries(m)[0]
	got, err := cl.Retrieve(context.Background(), &RetrieveRequest{Query: q, BudgetNS: 1})
	if err != nil {
		t.Fatalf("retrieve: %v", err)
	}
	if !got.Cost.Truncated {
		t.Fatal("budget of 1ns did not set Cost.Truncated")
	}
}

// TestServiceBudgetDirect: ShardService.Retrieve honors BudgetNS itself,
// so a direct call (no Server, background context) with a vanishing
// budget is truncated exactly like one over the wire, and a generous
// budget changes nothing.
func TestServiceBudgetDirect(t *testing.T) {
	m := retrievaltest.RandomModel(t, retrievaltest.Config{Seed: 13, Videos: 6, MaxShots: 20})
	shards, _ := shard.Split(m, 1)
	svc, err := NewShardService(shards[0], 0, 1, retrieval.Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := retrievaltest.Queries(m)[0]
	got, err := svc.Retrieve(context.Background(), &RetrieveRequest{Query: q, BudgetNS: 1})
	if err != nil {
		t.Fatalf("retrieve: %v", err)
	}
	if !got.Cost.Truncated {
		t.Fatal("budget of 1ns did not set Cost.Truncated")
	}
	want, err := svc.Retrieve(context.Background(), &RetrieveRequest{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	got, err = svc.Retrieve(context.Background(), &RetrieveRequest{Query: q, BudgetNS: int64(time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	if want.Cost.Truncated || !reflect.DeepEqual(got, want) {
		t.Fatalf("an unreached budget changed the answer:\n got %+v\nwant %+v", got, want)
	}
}

func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		// Leak check: after every test's cleanup ran, no rpc goroutine
		// (server conn loops, Serve accepts) may remain.
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if !rpcGoroutinesRunning() {
				os.Exit(0)
			}
			time.Sleep(20 * time.Millisecond)
		}
		println("rpc: goroutine leak after tests:")
		buf := make([]byte, 1<<20)
		println(string(buf[:runtime.Stack(buf, true)]))
		os.Exit(1)
	}
	os.Exit(code)
}

func rpcGoroutinesRunning() bool {
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	for _, g := range strings.Split(stacks, "\n\n") {
		if strings.Contains(g, "internal/rpc.(*Server)") {
			return true
		}
	}
	return false
}
