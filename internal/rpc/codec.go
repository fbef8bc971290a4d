package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
	"unsafe"

	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/videomodel"
)

// The body codec. Conventions shared by all five messages:
//
//	u8/bool  1 byte (a bool is exactly 0 or 1)
//	i64/u64  8 bytes little-endian (every int that is not an id)
//	f64      8 bytes little-endian math.Float64bits
//	id       4 bytes little-endian int32 (events, states, shots, videos)
//	count    4 bytes little-endian uint32, followed by that many items
//	str      count + bytes
//
// Variable-length messages put every fixed-size header before any
// variable-size data (all step headers, then every step's event ids; all
// match headers, then every match's states, shots, videos, weights), so
// a decoder can total the counts, require exactly that many bytes to
// remain, and only then carve every slice out of a handful of backing
// arrays. A count needs no width check on encode: four billion items
// cannot fit under MaxFrame, which writeFrame enforces on the finished
// frame.

// wireVersion leads every body. A gob-era body starts with the length
// of a gob type definition (never 1 to 4), a version-1 request still
// carried the Eq. 14 epsilon as an f64 after the coarse budget, a
// version-2 status response had no domain, and a version-3 request
// carried a pattern-level event array before its steps, so an old peer
// is refused by errWireVersion instead of being mis-parsed.
const wireVersion = 4

// Decode failures. None is transient: the frame arrived whole (a torn
// one fails in readFrame), so a retry would decode the same bytes.
var (
	errWireVersion = errors.New("unsupported wire version")
	errShort       = errors.New("body shorter than its fields and counts require")
	errTrailing    = errors.New("trailing bytes after the message")
	errBadValue    = errors.New("field outside its domain")
)

const (
	stepHeaderSize  = 4 + 4 + 8 + 8     // nEvents, nNot, MinGapMS, MaxGapMS
	matchHeaderSize = 8 + 4 + 4 + 4 + 4 // Score, nStates, nShots, nVideos, nWeights
	idSize          = 4
	f64Size         = 8
)

// QueryOptions' two bools share one flags byte.
const (
	flagCrossVideo = 1 << iota
	flagAnnotatedOnly
	flagsKnown = flagCrossVideo | flagAnnotatedOnly
)

var le = binary.LittleEndian

// writer appends to a frame with a sticky error — reader's mirror image:
// after the first failure (only an id can fail) nothing more is
// written, so callers check err once.
type writer struct {
	b   []byte
	err error
}

func (w *writer) u8(v byte)     { w.b = append(w.b, v) }
func (w *writer) u64(v uint64)  { w.b = le.AppendUint64(w.b, v) }
func (w *writer) i64(v int)     { w.u64(uint64(int64(v))) }
func (w *writer) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *writer) count(n int)   { w.b = le.AppendUint32(w.b, uint32(n)) }

func (w *writer) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *writer) str(s string) {
	w.count(len(s))
	w.b = append(w.b, s...)
}

// id appends id at the 32-bit wire width, refusing one that does not fit
// rather than wrapping it.
func (w *writer) id(id int) {
	if int(int32(id)) != id && w.err == nil {
		w.err = fmt.Errorf("id %d does not fit the 32-bit wire width", id)
	}
	w.b = le.AppendUint32(w.b, uint32(int32(id)))
}

func putIDs[T ~int](w *writer, ids []T) {
	for _, id := range ids {
		w.id(int(id))
	}
}

// budgetedRequest is a retrieve request frame whose execution budget is
// budget rather than the request's own BudgetNS: what Client.RetrieveBy
// sends, so one request can be shared by every shard and retry of a
// query and none of them writes it.
type budgetedRequest struct {
	*RetrieveRequest
	budget time.Duration
}

// errNoWireForm refuses a message of a type the codec does not know. It
// names no type: a message formatted into an error would escape to the
// heap on every call.
var errNoWireForm = errors.New("no wire form for the message type")

// appendBody appends msg's versioned body to b. msg is a pointer to one
// of the five message types, or a *budgetedRequest.
func appendBody(b []byte, msg any) ([]byte, error) {
	w := writer{b: append(b, wireVersion)}
	switch m := msg.(type) {
	case *RetrieveRequest:
		appendRetrieveRequest(&w, m, time.Duration(m.BudgetNS))
	case *budgetedRequest:
		appendRetrieveRequest(&w, m.RetrieveRequest, m.budget)
	case *RetrieveResponse:
		appendRetrieveResponse(&w, m)
	case *StatusRequest:
	case *StatusResponse:
		w.u64(m.Generation)
		w.i64(m.Shard)
		w.i64(m.OfShards)
		w.i64(m.Videos)
		w.i64(m.States)
		w.str(m.State)
		w.str(m.Domain)
	case *ErrorResponse:
		w.str(m.Code)
		w.str(m.Msg)
	default:
		w.err = errNoWireForm
	}
	return w.b, w.err
}

func appendRetrieveRequest(w *writer, m *RetrieveRequest, budget time.Duration) {
	w.u64(uint64(budget))
	o := &m.Options
	w.i64(o.TopK)
	w.i64(o.Beam)
	w.i64(o.CoarseCandidates)
	var flags byte
	if o.CrossVideo {
		flags |= flagCrossVideo
	}
	if o.AnnotatedOnly {
		flags |= flagAnnotatedOnly
	}
	w.u8(flags)

	q := &m.Query
	w.bool(q.Scope != nil)
	if sc := q.Scope; sc != nil {
		w.id(int(sc.Video))
		w.i64(sc.FromMS)
		w.i64(sc.ToMS)
	}
	w.count(len(q.Steps))
	for i := range q.Steps {
		st := &q.Steps[i]
		w.count(len(st.Events))
		w.count(len(st.Not))
		w.i64(st.MinGapMS)
		w.i64(st.MaxGapMS)
	}
	for i := range q.Steps {
		putIDs(w, q.Steps[i].Events)
		putIDs(w, q.Steps[i].Not)
	}
}

func appendRetrieveResponse(w *writer, m *RetrieveResponse) {
	w.u64(m.Generation)
	w.i64(m.Shard)
	w.i64(m.OfShards)
	w.i64(m.Cost.SimEvals)
	w.i64(m.Cost.EdgeEvals)
	w.i64(m.Cost.VideosSeen)
	w.i64(m.Cost.DegradedShards)
	w.bool(m.Cost.Truncated)
	w.count(len(m.Matches))
	for i := range m.Matches {
		mt := &m.Matches[i]
		w.f64(mt.Score)
		w.count(len(mt.States))
		w.count(len(mt.Shots))
		w.count(len(mt.Videos))
		w.count(len(mt.Weights))
	}
	for i := range m.Matches {
		mt := &m.Matches[i]
		putIDs(w, mt.States)
		putIDs(w, mt.Shots)
		putIDs(w, mt.Videos)
		for _, f := range mt.Weights {
			w.f64(f)
		}
	}
}

// reader is a cursor over a frame body with a sticky error: after the
// first failure every read returns zero, so callers check err once.
type reader struct {
	b   []byte
	err error
}

// take consumes n bytes, or fails with errShort.
func (r *reader) take(n int) []byte {
	if r.err == nil && n > len(r.b) {
		r.err = errShort
	}
	if r.err != nil {
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

func (r *reader) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *reader) bool() bool {
	v := r.u8()
	if v > 1 && r.err == nil {
		r.err = errBadValue
	}
	return v == 1
}

func (r *reader) u32() uint32 {
	if b := r.take(4); b != nil {
		return le.Uint32(b)
	}
	return 0
}

func (r *reader) u64() uint64 {
	if b := r.take(8); b != nil {
		return le.Uint64(b)
	}
	return 0
}

func (r *reader) i64() int {
	v := int64(r.u64())
	if int64(int(v)) != v && r.err == nil { // a 32-bit host cannot hold it
		r.err = errBadValue
	}
	return int(v)
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

// count reads an item count and checks it against the bytes that remain
// at itemSize bytes per item, so nothing is ever allocated on the word
// of a count alone.
func (r *reader) count(itemSize int) int {
	n := r.u32()
	if r.err == nil && uint64(n)*uint64(itemSize) > uint64(len(r.b)) {
		r.err = errShort
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

func (r *reader) str() string { return string(r.take(r.count(1))) }

// exact requires that exactly need bytes remain: the totalled counts of
// a message must account for the rest of its body.
func (r *reader) exact(need uint64) {
	if r.err != nil {
		return
	}
	if have := uint64(len(r.b)); need > have {
		r.err = errShort
	} else if need < have {
		r.err = errTrailing
	}
}

// getIDs decodes n ids into the front of backing and returns that prefix
// (capacity-capped, so an append by the caller cannot run into the next
// carve) and the rest of backing. Zero ids decode as nil. The caller
// has already checked that backing and the body hold n.
func getIDs[T ~int](r *reader, backing []T, n uint32) (out, rest []T) {
	if n == 0 {
		return nil, backing
	}
	b := r.take(int(n) * idSize)
	out, rest = backing[:n:n], backing[n:]
	for i := range out {
		out[i] = T(int32(le.Uint32(b[i*idSize:])))
	}
	return out, rest
}

// decodeFrame decodes a frame body into msg, a pointer to a message of
// the type the frame's tag names, or a *requestBuf for a request. Every
// field is overwritten, so msg may hold an earlier decode: a request
// reuses its Steps array and Scope, a requestBuf its id backing as well.
// msg must own that storage. A response's matches are carved from its
// Rank (the caller's, kept between decodes), or from fresh storage when
// Rank is nil. On error msg is partly written.
func decodeFrame(body []byte, msg any) error {
	r := reader{b: body}
	if v := r.u8(); r.err == nil && v != wireVersion {
		return fmt.Errorf("rpc: decoding frame: %w %d (this side speaks %d)", errWireVersion, v, wireVersion)
	}
	switch m := msg.(type) {
	case *RetrieveRequest:
		var ids []videomodel.Event // fresh backing
		decodeRetrieveRequest(&r, m, &ids)
	case *requestBuf:
		decodeRetrieveRequest(&r, &m.RetrieveRequest, &m.ids)
	case *RetrieveResponse:
		decodeRetrieveResponse(&r, m)
	case *StatusRequest:
	case *StatusResponse:
		m.Generation = r.u64()
		m.Shard = r.i64()
		m.OfShards = r.i64()
		m.Videos = r.i64()
		m.States = r.i64()
		m.State = r.str()
		m.Domain = r.str()
	case *ErrorResponse:
		m.Code = r.str()
		m.Msg = r.str()
	default:
		return fmt.Errorf("rpc: decoding frame: %w", errNoWireForm)
	}
	if r.exact(0); r.err != nil {
		return fmt.Errorf("rpc: decoding frame: %w", r.err)
	}
	return nil
}

// requestBuf is the request a server connection decodes every request
// frame into, with the backing array its steps' id windows are carved
// from: kept between decodes, so a warm connection decodes a request
// without allocating.
type requestBuf struct {
	RetrieveRequest
	ids []videomodel.Event
}

// size returns the bytes rb's storage holds.
func (rb *requestBuf) size() int {
	return cap(rb.Query.Steps)*int(unsafe.Sizeof(retrieval.Step{})) + cap(rb.ids)*int(unsafe.Sizeof(videomodel.Event(0)))
}

// decodeRetrieveRequest decodes into m, reusing m's Steps array and
// Scope, with every step's ids carved from *ids (grown when short).
func decodeRetrieveRequest(r *reader, m *RetrieveRequest, ids *[]videomodel.Event) {
	m.BudgetNS = int64(r.u64())
	o := &m.Options
	o.TopK = r.i64()
	o.Beam = r.i64()
	o.CoarseCandidates = r.i64()
	flags := r.u8()
	if flags&^flagsKnown != 0 && r.err == nil {
		r.err = errBadValue
	}
	o.CrossVideo = flags&flagCrossVideo != 0
	o.AnnotatedOnly = flags&flagAnnotatedOnly != 0

	q := &m.Query
	if r.bool() {
		if q.Scope == nil {
			q.Scope = new(retrieval.Scope)
		}
		*q.Scope = retrieval.Scope{Video: videomodel.VideoID(int32(r.u32())), FromMS: r.i64(), ToMS: r.i64()}
	} else {
		q.Scope = nil
	}
	nSteps := r.count(stepHeaderSize)
	hdr := reader{b: r.take(nSteps * stepHeaderSize)}
	var nIDs uint64
	for i := 0; i < nSteps; i++ {
		h := hdr.b[i*stepHeaderSize:]
		nIDs += uint64(le.Uint32(h)) + uint64(le.Uint32(h[4:]))
	}
	if r.exact(nIDs * idSize); r.err != nil {
		return
	}
	// One backing array holds every step's events.
	if uint64(cap(*ids)) < nIDs {
		*ids = make([]videomodel.Event, nIDs)
	}
	backing := (*ids)[:nIDs]
	switch {
	case nSteps == 0:
		q.Steps = nil
	case cap(q.Steps) < nSteps:
		q.Steps = make([]retrieval.Step, nSteps)
	default:
		q.Steps = q.Steps[:nSteps]
	}
	for i := range q.Steps {
		st := &q.Steps[i]
		nEv, nNot := hdr.u32(), hdr.u32()
		st.MinGapMS, st.MaxGapMS = hdr.i64(), hdr.i64()
		st.Events, backing = getIDs(r, backing, nEv)
		st.Not, backing = getIDs(r, backing, nNot)
	}
	if hdr.err != nil {
		r.err = hdr.err
	}
}

func decodeRetrieveResponse(r *reader, m *RetrieveResponse) {
	m.Generation = r.u64()
	m.Shard = r.i64()
	m.OfShards = r.i64()
	m.Cost.SimEvals = r.i64()
	m.Cost.EdgeEvals = r.i64()
	m.Cost.VideosSeen = r.i64()
	m.Cost.DegradedShards = r.i64()
	m.Cost.Truncated = r.bool()
	n := r.count(matchHeaderSize)
	hdr := reader{b: r.take(n * matchHeaderSize)}
	var nStates, nShots, nVideos, nWeights uint64
	for i := 0; i < n; i++ {
		h := hdr.b[i*matchHeaderSize:]
		nStates += uint64(le.Uint32(h[8:]))
		nShots += uint64(le.Uint32(h[12:]))
		nVideos += uint64(le.Uint32(h[16:]))
		nWeights += uint64(le.Uint32(h[20:]))
	}
	m.Matches = nil
	if r.exact((nStates+nShots+nVideos)*idSize + nWeights*f64Size); r.err != nil || n == 0 {
		return
	}
	// The match array and four flat slabs, whatever TopK is: the
	// caller's Rank, or fresh storage.
	matches, states, shots, videos, weights := m.Rank.Carve(n, int(nStates), int(nShots), int(nVideos), int(nWeights))
	m.Matches = matches
	for i := range m.Matches {
		mt := &m.Matches[i]
		*mt = retrieval.Match{Score: hdr.f64()}
		nSt, nSh, nVi, nWe := hdr.u32(), hdr.u32(), hdr.u32(), hdr.u32()
		mt.States, states = getIDs(r, states, nSt)
		mt.Shots, shots = getIDs(r, shots, nSh)
		mt.Videos, videos = getIDs(r, videos, nVi)
		if nWe > 0 {
			mt.Weights, weights = weights[:nWe:nWe], weights[nWe:]
			b := r.take(int(nWe) * f64Size)
			for j := range mt.Weights {
				mt.Weights[j] = math.Float64frombits(le.Uint64(b[j*f64Size:]))
			}
		}
	}
}
