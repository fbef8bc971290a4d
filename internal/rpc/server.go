package rpc

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"github.com/videodb/hmmm/internal/retrieval"
)

// Handler executes requests for a Server. Implementations must be safe
// for concurrent use and honor RetrieveRequest.BudgetNS themselves: the
// Server hands every request its base context, which ends only at Close.
// ShardService is the production implementation.
//
// RetrieveInto answers req into resp, overwriting every exported field.
// Both belong to the connection, which reuses them for its next
// request: the handler must not retain req, resp, or any slice of
// either past return. On error resp is ignored.
type Handler interface {
	RetrieveInto(ctx context.Context, req *RetrieveRequest, resp *RetrieveResponse) error
	Status() StatusResponse
}

// Server serves the rpc protocol over a net.Listener: one goroutine per
// connection, strictly request/response. It tracks every live
// connection so Close is leak-free — after Close returns, no server
// goroutine remains.
type Server struct {
	handler Handler
	logf    func(format string, args ...any)

	// baseCtx is every request handler's context and is cancelled by
	// Close, so even an unbudgeted retrieval (BudgetNS == 0) cannot
	// outlive the server and hold up the shutdown grace window. A budget
	// is a deadline value the handler applies itself, not a context.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// draining is read on every request, so it stays off mu.
	draining atomic.Bool

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer returns a server dispatching to h. logf, when non-nil,
// receives per-connection error logs (nil discards them — tests).
func NewServer(h Handler, logf func(format string, args ...any)) *Server {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		handler: h, logf: logf, conns: make(map[net.Conn]struct{}),
		baseCtx: ctx, baseCancel: cancel,
	}
}

// Serve accepts connections on ln until Close. It always returns a
// non-nil error; after Close the error is net.ErrClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			conn.Close()
		}()
	}
}

// Drain flips the server to DRAINING: Status reports it, and new
// retrieve requests are refused with CodeDraining while in-flight ones
// finish. Draining is one-way; a drained server is shut down, not
// readmitted.
func (s *Server) Drain() { s.draining.Store(true) }

// Close stops the listener, cancels every in-flight handler (budgeted
// or not), closes every live connection, and waits for all connection
// goroutines to exit. Safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	s.baseCancel()
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

// connBufs is what one server connection owns for its lifetime and
// reuses between its serial exchanges: the frame buffers, the request
// every request frame decodes into, and the response the handler
// answers into with the ranking storage its matches are carved from. A
// warm connection therefore answers a retrieval without allocating its
// request, response or ranking.
type connBufs struct {
	frameBufs
	req  requestBuf
	resp RetrieveResponse
	rank retrieval.RankBuf
}

// trim ends an exchange: like the frame buffers, a request or ranking
// one large exchange grew past maxKeptBuf is dropped, and the response
// lets go of the ranking it answered with.
func (c *connBufs) trim() {
	c.frameBufs.trim()
	if c.req.size() > maxKeptBuf {
		c.req = requestBuf{}
	}
	if c.rank.Size() > maxKeptBuf {
		c.rank = retrieval.RankBuf{}
	}
	c.resp = RetrieveResponse{Rank: &c.rank}
}

// serveConn runs the request/response loop for one connection until the
// peer hangs up, a protocol error occurs, or the server closes.
func (s *Server) serveConn(conn net.Conn) {
	c := new(connBufs) // this connection's, for its lifetime
	c.resp.Rank = &c.rank
	for {
		tag, body, err := c.readFrame(conn)
		if err != nil {
			// EOF, reset, and closed-connection errors are the normal
			// end of a connection; anything else is a protocol error
			// worth a log line before the connection drops (the framing
			// gives no way to resynchronize mid-stream).
			if !quietClose(err) {
				s.logf("rpc: %s: read: %v", conn.RemoteAddr(), err)
			}
			return
		}
		if err := s.dispatch(conn, c, tag, body); err != nil {
			s.logf("rpc: %s: %v", conn.RemoteAddr(), err)
			return
		}
		c.trim()
	}
}

// quietClose reports whether err is an ordinary end-of-connection.
func quietClose(err error) bool {
	if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
		return true
	}
	var oe *net.OpError
	return errors.As(err, &oe)
}

// dispatch handles one decoded frame. A returned error tears down the
// connection (protocol-level failure); request-level failures are
// answered with an ErrorResponse frame and keep the connection.
func (s *Server) dispatch(conn net.Conn, c *connBufs, tag byte, body []byte) error {
	fb := &c.frameBufs
	switch tag {
	case tagStatusReq:
		if err := decodeFrame(body, &StatusRequest{}); err != nil {
			return fb.writeFrame(conn, tagError, &ErrorResponse{Code: CodeBadRequest, Msg: err.Error()})
		}
		st := s.handler.Status()
		if s.draining.Load() {
			st.State = StateDraining
		}
		return fb.writeFrame(conn, tagStatusResp, &st)

	case tagRetrieveReq:
		if s.draining.Load() {
			return fb.writeFrame(conn, tagError, &ErrorResponse{Code: CodeDraining, Msg: "server draining"})
		}
		if err := decodeFrame(body, &c.req); err != nil {
			return fb.writeFrame(conn, tagError, &ErrorResponse{Code: CodeBadRequest, Msg: err.Error()})
		}
		// The handler runs under baseCtx so Close bounds even unbudgeted
		// requests; the handler turns BudgetNS into its own deadline
		// value, so a request builds no timer.
		if err := s.handler.RetrieveInto(s.baseCtx, &c.req.RetrieveRequest, &c.resp); err != nil {
			code := CodeInternal
			if se := AsServerError(err); se != nil {
				code = se.Code
			}
			return fb.writeFrame(conn, tagError, &ErrorResponse{Code: code, Msg: err.Error()})
		}
		return fb.writeFrame(conn, tagRetrieveResp, &c.resp)

	default:
		return fb.writeFrame(conn, tagError, &ErrorResponse{Code: CodeBadRequest, Msg: "unknown frame tag"})
	}
}
