package rpc

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"
)

// aLongTimeAgo pokes a connection's deadline into the past, failing any
// blocked read/write immediately (the net/http cancellation idiom).
var aLongTimeAgo = time.Unix(1, 0)

// ctxGrace is how far past a context's deadline the connection deadline
// sits when that context bounds the exchange: the context's timer fires
// first and pokes, so the caller sees ctx.Err() rather than a bare i/o
// timeout; the connection deadline is only the backstop.
const ctxGrace = 100 * time.Millisecond

// Client is a pooled rpc client for one endpoint address. Connections
// are dialed lazily, run one request at a time, and are returned to a
// small idle pool on clean completion; any error discards the
// connection (the protocol cannot resynchronize mid-stream).
//
// An exchange is bounded by two things, and neither costs a context of
// its own. The attempt cap a caller passes to RetrieveBy is the
// connection deadline (and the dial deadline): when it passes, the
// blocked I/O fails with an i/o timeout. The caller's context is watched
// by a context.AfterFunc whose poke — built once per connection at dial
// — moves that deadline into the past, so a context that expires or is
// cancelled mid-request fails the blocked I/O at once and the call
// returns ctx.Err(). That is what lets the coordinator abandon a hedged
// request's loser without leaking a goroutine or a connection. A
// connection a poke may have touched is closed, never parked.
type Client struct {
	addr        string
	dialTimeout time.Duration
	maxIdle     int

	mu     sync.Mutex
	idle   []*clientConn
	closed bool
}

// clientConn is one pooled connection and the frame buffers it owns.
type clientConn struct {
	net.Conn
	frameBufs
	// poke moves the connection deadline into the past. It is built once
	// at dial, so arming cancellation per exchange allocates no closure.
	poke func()
}

// NewClient returns a client for addr. dialTimeout bounds each dial (0
// means 2s); up to maxIdle connections are kept warm (0 means 2).
func NewClient(addr string, dialTimeout time.Duration, maxIdle int) *Client {
	if dialTimeout <= 0 {
		dialTimeout = 2 * time.Second
	}
	if maxIdle <= 0 {
		maxIdle = 2
	}
	return &Client{addr: addr, dialTimeout: dialTimeout, maxIdle: maxIdle}
}

// Addr returns the endpoint address the client dials.
func (c *Client) Addr() string { return c.addr }

// Close discards the idle pool. In-flight requests keep their
// connections and discard them on completion.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, conn := range c.idle {
		conn.Close()
	}
	c.idle = nil
}

// Retrieve round-trips a retrieval request bounded by ctx alone, with
// req's own BudgetNS, into a fresh response.
func (c *Client) Retrieve(ctx context.Context, req *RetrieveRequest) (*RetrieveResponse, error) {
	resp := new(RetrieveResponse)
	if err := c.RetrieveBy(ctx, time.Time{}, time.Duration(req.BudgetNS), req, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// RetrieveBy round-trips a retrieval request that gives up at deadline
// (zero: no cap beyond ctx) or when ctx ends, whichever comes first. A
// request that hits the cap fails with an i/o timeout; one whose ctx
// ends returns ctx.Err(). budget goes on the wire in place of
// req.BudgetNS, and req is only read, so concurrent calls may share it.
// The answer is decoded into resp, overwriting every field but Rank; its
// matches are carved from resp.Rank, which the caller keeps and may
// reuse once the call returns, or from fresh storage when Rank is nil.
// Either way they are the caller's. On error resp is partly written and
// must not be used.
func (c *Client) RetrieveBy(ctx context.Context, deadline time.Time, budget time.Duration, req *RetrieveRequest, resp *RetrieveResponse) error {
	msg := budgetedRequest{req, budget}
	return c.call(ctx, deadline, tagRetrieveReq, &msg, tagRetrieveResp, resp)
}

// Status round-trips a status probe.
func (c *Client) Status(ctx context.Context) (*StatusResponse, error) {
	var resp StatusResponse
	if err := c.call(ctx, time.Time{}, tagStatusReq, &StatusRequest{}, tagStatusResp, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// call runs one request/response exchange. A request that fails on a
// pooled connection before any response bytes arrive is retried once on
// a fresh dial — the pooled connection may simply have been closed by
// the server side (drain, idle timeout) since it was parked.
func (c *Client) call(ctx context.Context, deadline time.Time, reqTag byte, req any, respTag byte, resp any) error {
	for attempt := 0; ; attempt++ {
		conn, pooled, err := c.conn(ctx, deadline)
		if err != nil {
			return err
		}
		err = c.roundTrip(ctx, deadline, conn, reqTag, req, respTag, resp)
		if err == nil {
			return nil
		}
		// Retry only transport failures on a pooled connection, with
		// time left: the server may have closed it while parked. A
		// ServerError arrived over a working exchange — redialing cannot
		// change the answer.
		if pooled && attempt == 0 && ctx.Err() == nil && (deadline.IsZero() || time.Now().Before(deadline)) &&
			AsServerError(err) == nil && IsTransient(err) {
			continue
		}
		return err
	}
}

// conn pops an idle connection or dials a fresh one by deadline.
func (c *Client) conn(ctx context.Context, deadline time.Time) (conn *clientConn, pooled bool, err error) {
	c.mu.Lock()
	if n := len(c.idle); n > 0 {
		conn = c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return conn, true, nil
	}
	c.mu.Unlock()
	d := net.Dialer{Timeout: c.dialTimeout, Deadline: deadline}
	nc, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, false, fmt.Errorf("rpc: dial %s: %w", c.addr, err)
	}
	return &clientConn{Conn: nc, poke: func() { nc.SetDeadline(aLongTimeAgo) }}, false, nil
}

// roundTrip writes one frame and reads the reply on conn, honoring ctx
// and deadline. On success the connection returns to the idle pool; on
// any failure it is closed.
func (c *Client) roundTrip(ctx context.Context, deadline time.Time, conn *clientConn, reqTag byte, req any, respTag byte, resp any) (err error) {
	// The connection deadline is the attempt cap, unless ctx's own
	// deadline comes no later: then ctx bounds the exchange, and its
	// deadline plus ctxGrace is only the backstop.
	d := deadline
	if cd, ok := ctx.Deadline(); ok && (d.IsZero() || !d.Before(cd)) {
		d = cd.Add(ctxGrace)
	}
	conn.SetDeadline(d)
	// stop reports false once the poke has started — in its own
	// goroutine, perhaps not yet finished — so a connection is parked
	// only when stop returns true: no poke ran, and none will.
	stop := context.AfterFunc(ctx, conn.poke)
	defer func() {
		// A ServerError rode a clean, fully-framed exchange: the
		// connection is still usable.
		if stop() && (err == nil || AsServerError(err) != nil) {
			c.park(conn)
			return
		}
		conn.Close()
		// Report cancellation as the context's error, not the opaque
		// i/o timeout the poked deadline produces.
		if err != nil && ctx.Err() != nil {
			err = ctx.Err()
		}
	}()

	if err = conn.writeFrame(conn, reqTag, req); err != nil {
		return err
	}
	tag, body, err := conn.readFrame(conn)
	if err != nil {
		return err
	}
	switch tag {
	case respTag:
		return decodeFrame(body, resp)
	case tagError:
		var e ErrorResponse
		if err := decodeFrame(body, &e); err != nil {
			return err
		}
		return &ServerError{Code: e.Code, Msg: e.Msg}
	default:
		return fmt.Errorf("rpc: unexpected frame tag %q", tag)
	}
}

// park returns a clean connection to the idle pool, or closes it when
// the pool is full or the client closed.
func (c *Client) park(conn *clientConn) {
	conn.trim()
	conn.SetDeadline(time.Time{})
	c.mu.Lock()
	if c.closed || len(c.idle) >= c.maxIdle {
		c.mu.Unlock()
		conn.Close()
		return
	}
	c.idle = append(c.idle, conn)
	c.mu.Unlock()
}
