package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"strconv"
)

// wrap layers the resilience middleware around the API mux, outermost
// first: request observation (metrics see every response the stack
// produces, including recovery's 500s and admission's 503s), then panic
// recovery (a handler bug costs one 500, never the process), then
// admission control (load shedding with 503 + Retry-After once
// MaxInflight requests are in flight), then the request-body size cap.
// Recovery sits outside admission so a panic in the admission path
// itself is also contained, and so the semaphore slot is released
// before the recovery handler writes the 500.
func (s *Server) wrap(h http.Handler) http.Handler {
	return s.withObs(s.withRecovery(s.withAdmission(s.withMaxBytes(h))))
}

// withRecovery converts a handler panic into a 500 JSON error and a
// logged stack trace. The response write is best-effort: if the handler
// already wrote a partial body, the 500 header is lost but the process
// still survives to serve the next request.
func (s *Server) withRecovery(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.metrics.panics.Inc()
				s.logf("server: PANIC serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
				writeError(w, http.StatusInternalServerError,
					fmt.Errorf("internal error serving %s", r.URL.Path))
			}
		}()
		h.ServeHTTP(w, r)
	})
}

// withAdmission sheds load once MaxInflight requests are being served:
// excess requests get an immediate 503 with Retry-After instead of
// queueing behind work the server cannot keep up with. The health and
// metrics endpoints bypass the gate so liveness probes and scrapes keep
// working exactly when the signal matters most — under overload. The
// inflight gauge is maintained here even when shedding is disabled; it
// is the single source the health report, /api/stats, and /metrics all
// read, so the three can never disagree about the in-flight count.
func (s *Server) withAdmission(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/health" || r.URL.Path == "/metrics" {
			h.ServeHTTP(w, r)
			return
		}
		// With the two-lane controller enabled, /api/query admission is
		// owned by the lanes (inside the coalescer, so only execution
		// leaders consume slots); the generic gate would double-count
		// waiters. Every other route keeps the single semaphore.
		if s.sem != nil && !(s.lanes != nil && r.URL.Path == "/api/query") {
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			default:
				s.metrics.shed.Inc()
				w.Header().Set("Retry-After", strconv.Itoa(shedRetryAfter()))
				writeError(w, http.StatusServiceUnavailable,
					fmt.Errorf("server at capacity (%d requests in flight), retry shortly", s.maxInflight))
				return
			}
		}
		s.metrics.inflight.Inc()
		defer s.metrics.inflight.Dec()
		h.ServeHTTP(w, r)
	})
}

// withMaxBytes caps request body size. MaxBytesReader makes the
// handler's decode fail with *http.MaxBytesError, which decodeJSON
// maps to 413.
func (s *Server) withMaxBytes(h http.Handler) http.Handler {
	if s.maxBytes < 0 {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.maxBytes)
		}
		h.ServeHTTP(w, r)
	})
}

// decodeJSON decodes a request body holding exactly one JSON value into
// v, writing the error response itself on failure: 413 when the body
// blew the size cap, 400 for malformed JSON, including an unknown field
// (a misspelled option must not silently take the server default) and
// anything but whitespace after the value. Returns false when the caller
// should stop.
func decodeJSON(w http.ResponseWriter, body io.Reader, v any) bool {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		jb := getJSONBuf()
		chunk := jb.scratch(512)
		err = onlyWhitespace(dec.Buffered(), chunk)
		if err == nil {
			err = onlyWhitespace(body, chunk)
		}
		jb.release()
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %s bytes", strconv.FormatInt(tooBig.Limit, 10)))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

// errTrailingData rejects a body with more than one JSON value in it.
var errTrailingData = errors.New("unexpected data after the JSON value")

// onlyWhitespace reads rd to EOF through chunk and fails at its first
// byte that is not JSON whitespace. It keeps nothing, so a body with the
// size cap disabled cannot make it buffer a trailing stream.
func onlyWhitespace(rd io.Reader, chunk []byte) error {
	for {
		n, err := rd.Read(chunk)
		for _, c := range chunk[:n] {
			if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
				return errTrailingData
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}
