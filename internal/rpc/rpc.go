// Package rpc is the compact length-prefixed TCP protocol between the
// retrieval coordinator and the shard servers (cmd/hmmm-shardd): the
// network promotion of the in-process scatter-gather in internal/shard.
//
// Wire format. Every message is one frame:
//
//	uint32 big-endian payload length (tag byte included)
//	1 tag byte naming the message type
//	body: 1 wire-version byte, then the message's fields (codec.go)
//
// Bodies are written by one hand-rolled codec: fixed-width little-endian
// integers (64-bit, except the ids inside queries and matches, which
// are 32-bit — an id that does not fit is an encode error, never a
// wrap), math.Float64bits for every score and weight so a float crosses
// the wire bit for bit, and uint32-length-prefixed strings and arrays.
// A decoder checks every count against the bytes that actually remain
// before it allocates, rejects trailing bytes and out-of-domain flag
// bytes, and refuses a body whose version byte it does not speak (a
// gob-era peer) with a permanent error. Empty slices decode as nil;
// Query.Scope == nil survives exactly.
//
// Every frame is self-contained — a reader never depends on state from
// an earlier frame — so a connection can be picked up, cut, or replayed
// at any frame boundary, which is what makes the fault-injection
// proxy's mid-stream cuts recoverable by a plain retry on a new
// connection. Frames are capped at MaxFrame to bound the damage of a
// corrupt or hostile length prefix.
//
// The protocol is strictly request/response per connection (no
// multiplexing): the client owns a small pool of connections and runs
// one request on each at a time. That keeps cancellation exact — the
// caller's attempt cap is the connection deadline, a hedged request's
// loser is abandoned by a poke (built once per connection) that moves
// that deadline into the past, and the connection is discarded rather
// than resynchronized — and it lets each connection own one read and
// one write frame buffer for its lifetime (frameBufs) instead of
// allocating per frame; a server connection likewise owns the request,
// response and ranking storage it reuses for every retrieval
// (connBufs).
//
// Semantics carried by the protocol, not just bytes:
//
//   - Per-request deadlines: RetrieveRequest.BudgetNS is the execution
//     budget the server must honor (ShardService turns it into the
//     Options.Deadline value of the shard-local retrieval — no timer
//     context — which returns its committed partial ranking with
//     Cost.Truncated on expiry, exactly like a local engine).
//   - Generation stamps: every RetrieveResponse carries the serving
//     model's generation, so the coordinator can refuse to merge
//     rankings computed on different model generations during a rolling
//     rollout.
//   - READY/DRAINING: StatusResponse reports the server's lifecycle
//     state, and a draining server rejects new retrievals with
//     CodeDraining — a transient error the coordinator routes around.
package rpc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"syscall"

	"github.com/videodb/hmmm/internal/retrieval"
)

// MaxFrame bounds a frame's payload (tag + body). Retrieval
// responses are a few KiB; 16 MiB leaves three orders of magnitude of
// headroom while keeping a corrupt length prefix from allocating the
// machine away.
const MaxFrame = 16 << 20

// Frame tags.
const (
	tagRetrieveReq  = 'R'
	tagRetrieveResp = 'r'
	tagStatusReq    = 'S'
	tagStatusResp   = 's'
	tagError        = 'E'
)

// Server lifecycle states reported by StatusResponse.
const (
	StateReady    = "READY"
	StateDraining = "DRAINING"
)

// Error codes carried by ErrorResponse.
const (
	// CodeDraining rejects new retrievals during graceful shutdown;
	// transient — the coordinator retries another replica.
	CodeDraining = "draining"
	// CodeBadRequest marks a request the server understood and refused
	// (invalid query); permanent — retrying cannot help.
	CodeBadRequest = "bad_request"
	// CodeInternal marks a server-side execution failure.
	CodeInternal = "internal"
)

// QueryOptions is the result-affecting slice of retrieval.Options a
// request carries over the wire: exactly the option fields of
// coalesce.QueryKey, because those are the fields that can change the
// ranking. They are all per-request: CoarseCandidates is a budget over
// the coarse index the shard server built at startup (or did not — then
// a positive budget is refused, and 0 is exact search). The build-time
// NoSimCache, the observers and StopAfterMatches (which no request can
// set: a server takes it from its own configuration) have no wire
// representation at all — the codec writes these five fields and nothing
// else — and stay a per-server concern.
type QueryOptions struct {
	TopK             int
	Beam             int
	CrossVideo       bool
	AnnotatedOnly    bool
	CoarseCandidates int
}

// FromOptions extracts the wire options from full engine options.
func FromOptions(o retrieval.Options) QueryOptions {
	return QueryOptions{
		TopK:             o.TopK,
		Beam:             o.Beam,
		CrossVideo:       o.CrossVideo,
		AnnotatedOnly:    o.AnnotatedOnly,
		CoarseCandidates: o.CoarseCandidates,
	}
}

// Apply overlays the wire options onto a server's base options,
// preserving the base's build-time NoSimCache, its StopAfterMatches and
// its observers.
func (qo QueryOptions) Apply(base retrieval.Options) retrieval.Options {
	base.TopK = qo.TopK
	base.Beam = qo.Beam
	base.CrossVideo = qo.CrossVideo
	base.AnnotatedOnly = qo.AnnotatedOnly
	base.CoarseCandidates = qo.CoarseCandidates
	return base
}

// RetrieveRequest asks a shard server for its ranking of one query.
type RetrieveRequest struct {
	Query   retrieval.Query
	Options QueryOptions
	// BudgetNS bounds the retrieval's execution on the server; 0 means
	// no server-side deadline beyond the connection's I/O deadlines. On
	// expiry the response carries the committed partial ranking with
	// Cost.Truncated set — a deadline is a degraded answer, not an error.
	BudgetNS int64
}

// RetrieveResponse is a shard's ranking, with state indices already
// lifted to parent-model (global) indices, so the coordinator gathers
// exactly what the in-process Group gathers.
type RetrieveResponse struct {
	Matches []retrieval.Match
	Cost    retrieval.Cost
	// Generation stamps the model snapshot that produced this ranking.
	// The coordinator refuses to merge mixed generations.
	Generation uint64
	// Shard / OfShards echo the serving shard's identity so the
	// coordinator can reject a mis-wired replica on every response, not
	// only during the startup WaitReady sweep. Both always travel (the
	// codec has no optional fields); OfShards == 0 can only come from a
	// Handler that does not stamp, and the coordinator skips the check
	// for those.
	Shard    int
	OfShards int
	// Rank is the storage Matches are carved from, kept by whoever owns
	// the response: a server connection's, which ShardService ranks
	// into, or a client caller's, which the decode writes into (the
	// coordinator passes one child buffer per shard). Matches alias it
	// until its next use. It never travels, and nothing overwrites it;
	// nil means fresh storage.
	Rank *retrieval.RankBuf
}

// StatusRequest asks for the server's health/readiness report.
type StatusRequest struct{}

// StatusResponse is the shard server's /healthz equivalent.
type StatusResponse struct {
	// State is StateReady or StateDraining.
	State      string
	Generation uint64
	// Shard / OfShards locate this server in the split ("shard 2 of 5").
	Shard    int
	OfShards int
	Videos   int
	States   int
	// Domain is the shard model's event vocabulary (its DomainName), so
	// the coordinator can refuse a fleet that mixes domains.
	Domain string
}

// ErrorResponse is the error frame.
type ErrorResponse struct {
	Code string
	Msg  string
}

// ServerError is an application-level error returned by the remote
// server (as opposed to a transport failure).
type ServerError struct {
	Code string
	Msg  string
}

func (e *ServerError) Error() string { return fmt.Sprintf("rpc: server error (%s): %s", e.Code, e.Msg) }

// AsServerError returns the *ServerError in err's chain, or nil. A nil
// err allocates nothing: errors.As's target, which escapes, is declared
// only on the error path.
func AsServerError(err error) *ServerError {
	if err == nil {
		return nil
	}
	var se *ServerError
	if errors.As(err, &se) {
		return se
	}
	return nil
}

// IsTransient classifies an error as retryable: transport failures
// (refused, reset, timed-out, torn mid-frame) and a draining server are
// transient — the request can be retried on another connection or
// replica; context errors and application errors are not. The
// coordinator's retry, hedging, and ejection logic all key off this.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if se := AsServerError(err); se != nil {
		return se.Code == CodeDraining
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	if errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) || errors.Is(err, syscall.ETIMEDOUT) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	var oe *net.OpError
	return errors.As(err, &oe)
}

// maxKeptBuf is the largest frame buffer a connection keeps between
// exchanges. Retrieval frames are a few KiB; a buffer grown past this by
// one large (or hostile, up to MaxFrame) frame is dropped after the
// exchange instead of staying pinned to an idle connection.
const maxKeptBuf = 64 << 10

// frameBufs are the read and write frame buffers one connection owns
// for its lifetime: the server's per-connection goroutine and each
// pooled client connection hold one. Sharing them across frames is safe
// because a connection runs one exchange at a time; a body returned by
// readFrame aliases the read buffer and must be decoded before the next
// readFrame or trim.
type frameBufs struct {
	r, w []byte
}

// trim ends an exchange: a buffer grown past maxKeptBuf is released. A
// race build poisons what it keeps, so a body read after its exchange
// reads 0xA5 bytes.
func (fb *frameBufs) trim() {
	if raceEnabled {
		for _, b := range [2][]byte{fb.r[:cap(fb.r)], fb.w[:cap(fb.w)]} {
			for i := range b {
				b[i] = 0xA5
			}
		}
	}
	if cap(fb.r) > maxKeptBuf {
		fb.r = nil
	}
	if cap(fb.w) > maxKeptBuf {
		fb.w = nil
	}
}

// writeFrame encodes msg and writes it as one length-prefixed frame. The
// length prefix and body go out in a single Write so a mid-stream cut
// can only tear a frame, never interleave two.
func (fb *frameBufs) writeFrame(w io.Writer, tag byte, msg any) error {
	b, err := appendBody(append(fb.w[:0], 0, 0, 0, 0, tag), msg)
	fb.w = b
	if err != nil {
		return fmt.Errorf("rpc: encoding %c frame: %w", tag, err)
	}
	n := len(b) - 4
	if n > MaxFrame {
		return fmt.Errorf("rpc: frame of %d bytes exceeds MaxFrame", n)
	}
	binary.BigEndian.PutUint32(b, uint32(n))
	_, err = w.Write(b)
	return err
}

// readFrame reads one frame, returning its tag and body. The body
// aliases the connection's read buffer.
func (fb *frameBufs) readFrame(r io.Reader) (byte, []byte, error) {
	hdr := fb.grow(4)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 {
		return 0, nil, errors.New("rpc: empty frame")
	}
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("rpc: frame length %d exceeds MaxFrame", n)
	}
	buf := fb.grow(int(n))
	if _, err := io.ReadFull(r, buf); err != nil {
		// A frame torn mid-body is an unexpected EOF even when the
		// underlying read reports a bare EOF.
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return buf[0], buf[1:], nil
}

// grow returns the read buffer resized to n bytes, reallocating only
// when a frame outgrows it.
func (fb *frameBufs) grow(n int) []byte {
	if cap(fb.r) < n {
		fb.r = make([]byte, n, max(n, 512))
	}
	return fb.r[:n]
}
