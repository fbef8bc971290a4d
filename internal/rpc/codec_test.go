package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/videomodel"
)

// stubHandler answers every retrieval with a fixed response.
type stubHandler struct{ resp *RetrieveResponse }

func (h stubHandler) RetrieveInto(_ context.Context, _ *RetrieveRequest, resp *RetrieveResponse) error {
	*resp = *h.resp
	return nil
}
func (h stubHandler) Status() StatusResponse { return StatusResponse{State: StateReady, OfShards: 1} }

// startStub serves h on a loopback listener and returns its address.
func startStub(t testing.TB, h Handler) string {
	t.Helper()
	srv := NewServer(h, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// fullRequest exercises every field of the request codec: a scoped,
// negated, gap-constrained pattern with a conjunction step.
func fullRequest() *RetrieveRequest {
	return &RetrieveRequest{
		Query: retrieval.Query{
			Steps: []retrieval.Step{
				{Events: []videomodel.Event{3, 4}},
				{Events: []videomodel.Event{1}, Not: []videomodel.Event{2, 5}, MinGapMS: 500, MaxGapMS: 90000},
			},
			Scope: &retrieval.Scope{Video: 7, FromMS: 1000, ToMS: 1 << 40},
		},
		Options: QueryOptions{
			TopK: 10, Beam: 4, CrossVideo: true,
			AnnotatedOnly: true, CoarseCandidates: 64,
		},
		BudgetNS: int64(1600 * time.Millisecond),
	}
}

// rankedResponse builds a topK-match, two-step ranking.
func rankedResponse(topK int) *RetrieveResponse {
	resp := &RetrieveResponse{
		Cost:       retrieval.Cost{SimEvals: 15786, EdgeEvals: 181221, VideosSeen: 647, Truncated: true, DegradedShards: 1},
		Generation: 9, Shard: 1, OfShards: 2,
	}
	for i := 0; i < topK; i++ {
		resp.Matches = append(resp.Matches, retrieval.Match{
			States:  []int{100 + i, 101 + i},
			Shots:   []videomodel.ShotID{videomodel.ShotID(5000 + i), videomodel.ShotID(5001 + i)},
			Videos:  []videomodel.VideoID{videomodel.VideoID(1 + i%3), videomodel.VideoID(1 + i%3)},
			Weights: []float64{0.5 / float64(i+1), 0.25 / float64(i+1)},
			Score:   0.75 / float64(i+1),
		})
	}
	return resp
}

// Frame offsets of a response's match count and of its first match's
// state count: envelope, version, generation, shard, of, four cost
// ints, truncated; then the count and the first header's score.
const (
	respMatchCountAt = 5 + 1 + 8 + 8 + 8 + 4*8 + 1
	respStateCountAt = respMatchCountAt + 4 + 8
)

// frameOf encodes msg as one frame.
func frameOf(t testing.TB, tag byte, msg any) []byte {
	t.Helper()
	var buf bytes.Buffer
	var fb frameBufs
	if err := fb.writeFrame(&buf, tag, msg); err != nil {
		t.Fatalf("writeFrame %c: %v", tag, err)
	}
	return buf.Bytes()
}

// messageFor returns an empty message of the type tag names.
func messageFor(tag byte) any {
	switch tag {
	case tagRetrieveReq:
		return new(RetrieveRequest)
	case tagRetrieveResp:
		return new(RetrieveResponse)
	case tagStatusReq:
		return new(StatusRequest)
	case tagStatusResp:
		return new(StatusResponse)
	case tagError:
		return new(ErrorResponse)
	}
	return nil
}

// sameBits compares two responses with floats by their bits, so NaN
// payloads and the sign of zero count.
func sameBits(t *testing.T, label string, want, got *RetrieveResponse) {
	t.Helper()
	if got.Cost != want.Cost || got.Generation != want.Generation || got.Shard != want.Shard || got.OfShards != want.OfShards {
		t.Fatalf("%s: header = %+v, want %+v", label, got, want)
	}
	if len(got.Matches) != len(want.Matches) {
		t.Fatalf("%s: %d matches, want %d", label, len(got.Matches), len(want.Matches))
	}
	for i, w := range want.Matches {
		g := got.Matches[i]
		if math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			t.Fatalf("%s: match %d score bits %#x, want %#x", label, i, math.Float64bits(g.Score), math.Float64bits(w.Score))
		}
		if len(g.Weights) != len(w.Weights) {
			t.Fatalf("%s: match %d has %d weights, want %d", label, i, len(g.Weights), len(w.Weights))
		}
		for j := range w.Weights {
			if math.Float64bits(g.Weights[j]) != math.Float64bits(w.Weights[j]) {
				t.Fatalf("%s: match %d weight %d bits %#x, want %#x", label, i, j, math.Float64bits(g.Weights[j]), math.Float64bits(w.Weights[j]))
			}
		}
		if !reflect.DeepEqual(g.States, w.States) || !reflect.DeepEqual(g.Shots, w.Shots) || !reflect.DeepEqual(g.Videos, w.Videos) {
			t.Fatalf("%s: match %d ids = %+v, want %+v", label, i, g, w)
		}
	}
}

// specialsResponse carries the floats a text or tolerance-based encoding
// would lose (±0, ±Inf, NaNs with distinct payloads, denormals) and the
// extreme ids the 32-bit wire width holds.
func specialsResponse() *RetrieveResponse {
	floats := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff4000000abcdef),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64 * 3, math.MaxFloat64, 1.0 / 3,
	}
	resp := &RetrieveResponse{
		Cost:       retrieval.Cost{SimEvals: math.MaxInt, EdgeEvals: math.MinInt, VideosSeen: -1},
		Generation: math.MaxUint64, Shard: math.MaxInt, OfShards: math.MaxInt,
	}
	for i, f := range floats {
		resp.Matches = append(resp.Matches, retrieval.Match{
			States:  []int{math.MaxInt32, math.MinInt32, i},
			Shots:   []videomodel.ShotID{math.MaxInt32},
			Videos:  []videomodel.VideoID{math.MinInt32, 0},
			Weights: []float64{f, floats[(i+1)%len(floats)]},
			Score:   f,
		})
	}
	return resp
}

// TestCodecRoundTrip pins decode(encode(x)) == x for all five messages,
// the nil-vs-empty rule, and Scope's nil-ness.
func TestCodecRoundTrip(t *testing.T) {
	msgs := []struct {
		tag byte
		msg any
	}{
		{tagRetrieveReq, fullRequest()},
		{tagRetrieveReq, &RetrieveRequest{Query: retrieval.NewQuery(2, 6)}},
		{tagRetrieveReq, &RetrieveRequest{}},
		{tagRetrieveResp, rankedResponse(10)},
		{tagRetrieveResp, &RetrieveResponse{Generation: 1, OfShards: 2}}, // empty ranking
		{tagStatusReq, &StatusRequest{}},
		{tagStatusResp, &StatusResponse{State: StateDraining, Generation: 3, Shard: 2, OfShards: 5, Videos: 171, States: 115670, Domain: "basketball"}},
		{tagError, &ErrorResponse{Code: CodeBadRequest, Msg: "retrieval: empty query pattern"}},
		{tagError, &ErrorResponse{}},
	}
	for _, tc := range msgs {
		frame := frameOf(t, tc.tag, tc.msg)
		got := messageFor(tc.tag)
		if err := decodeFrame(frame[5:], got); err != nil {
			t.Fatalf("%c %+v: decode: %v", tc.tag, tc.msg, err)
		}
		if !reflect.DeepEqual(got, tc.msg) {
			t.Fatalf("%c: decoded %+v, want %+v", tc.tag, got, tc.msg)
		}
	}

	// Empty slices collapse to nil (as they did under gob); a nil Scope
	// stays nil and a zero Scope stays non-nil.
	in := &RetrieveRequest{Query: retrieval.Query{
		Steps: []retrieval.Step{{Events: []videomodel.Event{1}, Not: []videomodel.Event{}}},
		Scope: &retrieval.Scope{},
	}}
	var out RetrieveRequest
	if err := decodeFrame(frameOf(t, tagRetrieveReq, in)[5:], &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.Query.Steps[0].Not != nil {
		t.Fatalf("empty slices must decode as nil: %+v", out.Query)
	}
	if out.Query.Scope == nil || *out.Query.Scope != (retrieval.Scope{}) {
		t.Fatalf("zero Scope must stay non-nil: %+v", out.Query.Scope)
	}
	var resp RetrieveResponse
	if err := decodeFrame(frameOf(t, tagRetrieveResp, &RetrieveResponse{Matches: []retrieval.Match{{States: []int{}}}})[5:], &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(resp.Matches) != 1 || resp.Matches[0].States != nil || resp.Matches[0].Weights != nil {
		t.Fatalf("empty match slices must decode as nil: %+v", resp.Matches)
	}
}

// TestCodecRejects pins the classified decode failures: a gob-era body,
// counts that outrun the body, trailing bytes, and out-of-domain flag
// bytes are all permanent errors, reported before anything is allocated
// on their word.
func TestCodecRejects(t *testing.T) {
	resp := frameOf(t, tagRetrieveResp, rankedResponse(2))
	patch := func(frame []byte, at int, v uint32) []byte {
		out := append([]byte(nil), frame...)
		binary.LittleEndian.PutUint32(out[at:], v)
		return out
	}
	req := frameOf(t, tagRetrieveReq, fullRequest())
	const flagsAt = 5 + 1 + 8 + 3*8

	cases := []struct {
		name string
		tag  byte
		body []byte
		want error
	}{
		{"wrong-version", tagRetrieveResp, append([]byte{wireVersion + 1}, resp[6:]...), errWireVersion},
		{"gob-era", tagRetrieveResp, hexFrame(t, gobResponseFrame)[5:], errWireVersion},
		{"version-1", tagRetrieveReq, hexFrame(t, v1RequestFrame)[5:], errWireVersion},
		{"version-3", tagRetrieveReq, hexFrame(t, v3RequestFrame)[5:], errWireVersion},
		{"empty-body", tagStatusReq, nil, errShort},
		{"matches-count-huge", tagRetrieveResp, patch(resp, respMatchCountAt, math.MaxInt32)[5:], errShort},
		{"matches-count-max", tagRetrieveResp, patch(resp, respMatchCountAt, math.MaxUint32)[5:], errShort},
		{"matches-count-low", tagRetrieveResp, patch(resp, respMatchCountAt, 1)[5:], errTrailing},
		{"state-count-huge", tagRetrieveResp, patch(resp, respStateCountAt, math.MaxInt32)[5:], errShort},
		{"state-count-low", tagRetrieveResp, patch(resp, respStateCountAt, 1)[5:], errTrailing},
		{"truncated-body", tagRetrieveResp, resp[5 : len(resp)-1], errShort},
		{"trailing-byte", tagRetrieveResp, append(append([]byte(nil), resp[5:]...), 0), errTrailing},
		{"status-trailing", tagStatusReq, []byte{wireVersion, 0}, errTrailing},
		{"unknown-flag", tagRetrieveReq, append(append(append([]byte(nil), req[5:flagsAt]...), 0x80), req[flagsAt+1:]...), errBadValue},
		{"flag-bit-2", tagRetrieveReq, append(append(append([]byte(nil), req[5:flagsAt]...), req[flagsAt]|1<<2), req[flagsAt+1:]...), errBadValue},
		{"bool-not-0-or-1", tagRetrieveReq, append(append(append([]byte(nil), req[5:flagsAt+1]...), 2), req[flagsAt+2:]...), errBadValue},
		{"string-count-huge", tagError, []byte{wireVersion, 0xff, 0xff, 0xff, 0x7f, 'x'}, errShort},
	}
	for _, tc := range cases {
		err := decodeFrame(tc.body, messageFor(tc.tag))
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if IsTransient(err) {
			t.Errorf("%s: a decode failure must be permanent, got transient %v", tc.name, err)
		}
	}

	// An id past the 32-bit wire width is refused on encode, not wrapped.
	var fb frameBufs
	for _, bad := range []*RetrieveResponse{
		{Matches: []retrieval.Match{{States: []int{math.MaxInt}}}},
		{Matches: []retrieval.Match{{Shots: []videomodel.ShotID{math.MaxInt}}}},
		{Matches: []retrieval.Match{{Videos: []videomodel.VideoID{math.MinInt}}}},
	} {
		if err := fb.writeFrame(io.Discard, tagRetrieveResp, bad); err == nil {
			t.Errorf("encoding %+v: want an id-width error", bad.Matches[0])
		}
	}
	if err := fb.writeFrame(io.Discard, tagRetrieveReq, &RetrieveRequest{Query: retrieval.NewQuery(math.MaxInt)}); err == nil {
		t.Error("encoding an event id past int32: want an id-width error")
	}
}

// TestCodecAllocs pins the codec's allocation profile: encoding into a
// connection's warmed buffer allocates nothing, decoding a response
// costs the same handful of allocations whatever TopK is, and none into
// a kept Rank.
func TestCodecAllocs(t *testing.T) {
	var fb frameBufs
	req := fullRequest()
	for _, topK := range []int{10, 100} {
		resp := rankedResponse(topK)
		if n := testing.AllocsPerRun(100, func() {
			if err := fb.writeFrame(io.Discard, tagRetrieveReq, req); err != nil {
				t.Fatal(err)
			}
			if err := fb.writeFrame(io.Discard, tagRetrieveResp, resp); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("topK %d: encoding request+response into a reused buffer = %v allocs, want 0", topK, n)
		}
		body := frameOf(t, tagRetrieveResp, resp)[5:]
		if n := testing.AllocsPerRun(100, func() {
			var got RetrieveResponse
			if err := decodeFrame(body, &got); err != nil {
				t.Fatal(err)
			}
		}); n > 8 {
			t.Errorf("topK %d: response decode = %v allocs, want <= 8", topK, n)
		}
		kept := RetrieveResponse{Rank: new(retrieval.RankBuf)}
		if n := testing.AllocsPerRun(100, func() {
			if err := decodeFrame(body, &kept); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("topK %d: response decode into a kept Rank = %v allocs, want 0", topK, n)
		}
	}
	body := frameOf(t, tagRetrieveReq, req)[5:]
	if n := testing.AllocsPerRun(100, func() {
		var got RetrieveRequest
		if err := decodeFrame(body, &got); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Errorf("request decode = %v allocs, want <= 4", n)
	}
}

// TestRoundTripAllocs pins a whole loopback exchange — client encode,
// server decode, stub handler, server encode, client decode, both
// sides' deadline and cancellation plumbing — at 18 allocations,
// measured with go1.24.0 on linux/amd64 (19 while the client's
// ServerError check allocated its errors.As target on every exchange;
// the per-frame gob streams cost about 850).
func TestRoundTripAllocs(t *testing.T) {
	cl := NewClient(startStub(t, stubHandler{rankedResponse(10)}), time.Second, 1)
	defer cl.Close()
	req := fullRequest()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if n := testing.AllocsPerRun(200, func() {
		if _, err := cl.Retrieve(ctx, req); err != nil {
			t.Fatal(err)
		}
	}); n > 18 {
		t.Errorf("one loopback Client.Retrieve = %v allocs, want <= 18 (measured with go1.24.0, running %s)", n, runtime.Version())
	}
}

// TestLargeFrameDoesNotPinBuffers sends a 1 MiB request and receives a
// 1 MiB response: the exchange works, and afterwards neither buffer of
// the parked connection is still that large.
func TestLargeFrameDoesNotPinBuffers(t *testing.T) {
	big := &RetrieveResponse{Matches: []retrieval.Match{{States: make([]int, 1<<18)}}}
	cl := NewClient(startStub(t, stubHandler{big}), time.Second, 1)
	defer cl.Close()
	got, err := cl.Retrieve(context.Background(), &RetrieveRequest{Query: retrieval.Query{Steps: []retrieval.Step{{Events: make([]videomodel.Event, 1<<18)}}}})
	if err != nil {
		t.Fatalf("retrieve: %v", err)
	}
	if len(got.Matches) != 1 || len(got.Matches[0].States) != 1<<18 {
		t.Fatalf("large response mangled: %d matches", len(got.Matches))
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if len(cl.idle) != 1 {
		t.Fatalf("%d idle connections, want the one that ran the exchange", len(cl.idle))
	}
	if r, w := cap(cl.idle[0].r), cap(cl.idle[0].w); r > maxKeptBuf || w > maxKeptBuf {
		t.Fatalf("parked connection still holds %d B read / %d B write buffers (cap %d)", r, w, maxKeptBuf)
	}

	// The server side runs the same trim after every dispatch.
	var fb frameBufs
	frame := frameOf(t, tagRetrieveResp, big)
	if _, _, err := fb.readFrame(bytes.NewReader(frame)); err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if fb.trim(); fb.r != nil {
		t.Fatalf("trim kept a %d B read buffer", cap(fb.r))
	}
}

// TestConcurrentExchangesKeepBuffersApart hammers one pooled client
// from several goroutines with two differently sized rankings: buffers
// are owned per connection, so no exchange may ever see another's bytes
// (run under -race by `make race`).
func TestConcurrentExchangesKeepBuffersApart(t *testing.T) {
	small, large := rankedResponse(1), rankedResponse(100)
	clients := []*Client{
		NewClient(startStub(t, stubHandler{small}), time.Second, 2),
		NewClient(startStub(t, stubHandler{large}), time.Second, 2),
	}
	want := []*RetrieveResponse{small, large}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (g + i) % 2
				got, err := clients[k].Retrieve(context.Background(), fullRequest())
				if err != nil {
					t.Errorf("goroutine %d call %d: %v", g, i, err)
					return
				}
				if !reflect.DeepEqual(got, want[k]) {
					t.Errorf("goroutine %d call %d: response differs from what its server sent", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, cl := range clients {
		cl.Close()
	}
}

// Frames recorded from the gob-era protocol (one fresh gob stream per
// frame): the version byte must refuse them.
const (
	gobRequestFrame  = "000001cc52417f0301010f52657472696576655265717565737401ff800001030105517565727901ff820001074f7074696f6e7301ff8c0001084275646765744e53010400000035ff8103010105517565727901ff8200010301064576656e747301ff84000105537465707301ff8800010553636f706501ff8a00000020ff83020101125b5d766964656f6d6f64656c2e4576656e7401ff8400010400001fff87020101105b5d72657472696576616c2e5374657001ff880001ff86000041ff85030101045374657001ff8600010401064576656e747301ff840001034e6f7401ff840001084d696e4761704d5301040001084d61784761704d53010400000031ff890301010553636f706501ff8a0001030105566964656f010400010646726f6d4d530104000104546f4d530104000000ff86ff8b0301010c51756572794f7074696f6e7301ff8c0001070104546f704b01040001044265616d010400010a43726f7373566964656f010200010a53696d457073696c6f6e010800010d416e6e6f74617465644f6e6c79010200011053746f7041667465724d6174636865730102000110436f6172736543616e64696461746573010400000015ff8001010202040001011401020001fcbebc200000"
	gobResponseFrame = "000001c6725bff8d030101105265747269657665526573706f6e736501ff8e00010501074d61746368657301ff9a000104436f737401ff9c00010a47656e65726174696f6e0106000105536861726401040001084f66536861726473010400000020ff99020101115b5d72657472696576616c2e4d6174636801ff9a0001ff9000004dff8f030101054d6174636801ff90000105010653746174657301ff9200010553686f747301ff94000106566964656f7301ff960001075765696768747301ff9800010553636f7265010800000013ff91020101055b5d696e7401ff92000104000021ff93020101135b5d766964656f6d6f64656c2e53686f74494401ff94000104000022ff95020101145b5d766964656f6d6f64656c2e566964656f494401ff96000104000017ff97020101095b5d666c6f6174363401ff9800010800005dff9b03010104436f737401ff9c000105010853696d4576616c730104000109456467654576616c73010400010a566964656f735365656e01040001095472756e6361746564010200010e446567726164656453686172647301040000002aff8e01010102020401020608010202020102fee03ffed03f01fee83f0001010601080102000101020400"
	gobStatusFrame   = "0000001f5319ff9d0301010d5374617475735265717565737401ff9e00000003ff9e00"
	gobErrorFrame    = "0000004d452cff9f0301010d4572726f72526573706f6e736501ffa00001020104436f6465010c0001034d7367010c0000001effa00108647261696e696e67010f73657276657220647261696e696e6700"
)

func hexFrame(t testing.TB, h string) []byte {
	t.Helper()
	b, err := hex.DecodeString(h)
	if err != nil {
		t.Fatalf("bad recorded frame: %v", err)
	}
	return b
}

// v1RequestFrame is fullRequest as a version-1 peer framed it, with an
// Eq. 14 epsilon of 0.125 after the coarse budget.
const v1RequestFrame = "00000094520100105e5f000000000a0000000000000004000000000000004000000000000000000000000000c03f070107000000e803000000000000000000000001000002000000020000000200000000000000000000000000000000000000000000000100000002000000f401000000000000905f01000000000003000000010000000300000004000000010000000200000005000000"

// v3RequestFrame is the same request as a version-3 peer framed it: a
// pattern-level event array (3, 1) counted before the step headers and
// written before the steps' ids, and StopAfterMatches as flags bit 2.
const v3RequestFrame = "0000008c520300105e5f000000000a0000000000000004000000000000004000000000000000070107000000e803000000000000000000000001000002000000020000000200000000000000000000000000000000000000000000000100000002000000f401000000000000905f01000000000003000000010000000300000004000000010000000200000005000000"

// TestGobEraPeerRefused drives recorded gob-era, version-1 and version-3
// request frames at a real server: each is answered with a bad_request
// error frame naming the version, never mis-parsed into a query.
func TestGobEraPeerRefused(t *testing.T) {
	addr := startStub(t, stubHandler{rankedResponse(1)})
	for _, h := range []string{gobRequestFrame, gobStatusFrame, v1RequestFrame, v3RequestFrame} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		if _, err := conn.Write(hexFrame(t, h)); err != nil {
			t.Fatalf("write: %v", err)
		}
		var fb frameBufs
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		tag, body, err := fb.readFrame(conn)
		if err != nil || tag != tagError {
			t.Fatalf("reply tag %q, err %v; want an error frame", tag, err)
		}
		var e ErrorResponse
		if err := decodeFrame(body, &e); err != nil {
			t.Fatalf("decoding the refusal: %v", err)
		}
		if e.Code != CodeBadRequest || !bytes.Contains([]byte(e.Msg), []byte("wire version")) {
			t.Fatalf("refusal = %+v, want bad_request naming the wire version", e)
		}
		conn.Close()
	}
}

// dirtyRequest is a larger request than any seed: three steps, scoped,
// with negations and gaps — what a reused request holds before a
// smaller one is decoded over it.
func dirtyRequest() *RetrieveRequest {
	req := fullRequest()
	req.Query.Steps = append(req.Query.Steps, retrieval.Step{
		Events: []videomodel.Event{1, 2, 3, 4, 5, 6}, Not: []videomodel.Event{7, 8}, MinGapMS: 1, MaxGapMS: 2,
	})
	return req
}

// dirtied returns a message for tag that already holds an earlier,
// larger decode (a reused request takes the server connection's
// requestBuf form, a reused response carries the Rank its matches were
// carved from, as the coordinator's shard buffers do), and the message a
// decode into it is compared by.
func dirtied(tb testing.TB, tag byte) (dst, msg any) {
	tb.Helper()
	var earlier any
	switch tag {
	case tagRetrieveReq:
		rb := new(requestBuf)
		dst, msg, earlier = rb, &rb.RetrieveRequest, dirtyRequest()
	case tagRetrieveResp:
		dst, earlier = &RetrieveResponse{Rank: new(retrieval.RankBuf)}, rankedResponse(10)
	case tagStatusResp:
		dst, earlier = new(StatusResponse), &StatusResponse{State: StateDraining, Generation: 3, Shard: 2, OfShards: 5, Videos: 171, States: 115670, Domain: "basketball"}
	case tagError:
		dst, earlier = new(ErrorResponse), &ErrorResponse{Code: CodeBadRequest, Msg: "retrieval: empty query pattern"}
	default:
		dst = messageFor(tag)
	}
	if msg == nil {
		msg = dst
	}
	if earlier != nil {
		if err := decodeFrame(frameOf(tb, tag, earlier)[5:], dst); err != nil {
			tb.Fatalf("dirtying a %c message: %v", tag, err)
		}
	}
	return dst, msg
}

// sameMessage is reflect.DeepEqual with a response's scores and weights
// compared by their bits, so that a NaN the wire carried equals itself,
// and a response's Rank (where its matches live, not what they are)
// ignored.
func sameMessage(a, b any) bool {
	ra, ok := a.(*RetrieveResponse)
	rb, ok2 := b.(*RetrieveResponse)
	if !ok || !ok2 {
		return reflect.DeepEqual(a, b)
	}
	if len(ra.Matches) != len(rb.Matches) || (ra.Matches == nil) != (rb.Matches == nil) {
		return false
	}
	ha, hb := *ra, *rb
	ha.Matches, hb.Matches, ha.Rank, hb.Rank = nil, nil, nil, nil
	if !reflect.DeepEqual(ha, hb) {
		return false
	}
	bitsEqual := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i := range ra.Matches {
		ma, mb := ra.Matches[i], rb.Matches[i]
		if !bitsEqual(ma.Score, mb.Score) || (ma.Weights == nil) != (mb.Weights == nil) || !slices.EqualFunc(ma.Weights, mb.Weights, bitsEqual) {
			return false
		}
		ma.Score, mb.Score, ma.Weights, mb.Weights = 0, 0, nil, nil
		if !reflect.DeepEqual(ma, mb) {
			return false
		}
	}
	return true
}

// FuzzFrameDecode feeds arbitrary bytes through the envelope and the
// body codec of whichever message the tag names. It must never panic,
// never allocate more than a small multiple of the frame's own length
// (counts are checked against the remaining bytes before any make), and
// whatever it accepts must re-encode to exactly the bytes it was given —
// the decoder admits one spelling per message. Decoded into a message
// an earlier, larger decode left dirty (as a server connection reuses
// its request, and the coordinator a shard's response and ranking
// buffer), it must give exactly what it gives into a zero one.
func FuzzFrameDecode(f *testing.F) {
	seeds := [][]byte{
		frameOf(f, tagRetrieveReq, fullRequest()),
		frameOf(f, tagRetrieveReq, &RetrieveRequest{Query: retrieval.NewQuery(2, 6)}),
		frameOf(f, tagRetrieveReq, &RetrieveRequest{Query: retrieval.Query{Steps: []retrieval.Step{{Not: []videomodel.Event{4}}}}}),
		frameOf(f, tagRetrieveReq, &RetrieveRequest{}),
		frameOf(f, tagRetrieveReq, dirtyRequest()),
		frameOf(f, tagRetrieveResp, rankedResponse(3)),
		frameOf(f, tagRetrieveResp, specialsResponse()),
		frameOf(f, tagRetrieveResp, &RetrieveResponse{Generation: 1, OfShards: 2}), // empty ranking
		// A match without weights, decoded over one that had them.
		frameOf(f, tagRetrieveResp, &RetrieveResponse{Generation: 2, Matches: []retrieval.Match{{Score: 0.5, States: []int{3}}}}),
		frameOf(f, tagStatusReq, &StatusRequest{}),
		frameOf(f, tagStatusResp, &StatusResponse{State: StateReady, Generation: 1, OfShards: 2, Videos: 86, States: 57835}),
		frameOf(f, tagError, &ErrorResponse{Code: CodeDraining, Msg: "server draining"}),
		hexFrame(f, gobRequestFrame), hexFrame(f, gobResponseFrame),
		hexFrame(f, gobStatusFrame), hexFrame(f, gobErrorFrame),
		hexFrame(f, v1RequestFrame), hexFrame(f, v3RequestFrame),
	}
	// Length and count fields at 0, 1, and 2^31-1: the envelope's, the
	// response's match count, and a match's state count.
	resp := frameOf(f, tagRetrieveResp, rankedResponse(2))
	for _, v := range []uint32{0, 1, math.MaxInt32} {
		for _, at := range []int{respMatchCountAt, respStateCountAt} {
			s := append([]byte(nil), resp...)
			binary.LittleEndian.PutUint32(s[at:], v)
			seeds = append(seeds, s)
		}
		s := append([]byte(nil), resp...)
		binary.BigEndian.PutUint32(s, v)
		seeds = append(seeds, s)
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, frame []byte) {
		var fb frameBufs
		tag, body, err := fb.readFrame(bytes.NewReader(frame))
		if err != nil {
			return
		}
		msg := messageFor(tag)
		if msg == nil {
			return
		}
		// The widest blow-up is a 24-byte match header becoming a
		// 104-byte Match; 8x plus the fixed structs is generous.
		// TotalAlloc is process-wide and the fuzz worker allocates in the
		// background, so only a reading that repeats counts.
		limit := uint64(8*len(frame) + 4096)
		grew := limit + 1
		for try := 0; try < 3 && grew > limit; try++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			err = decodeFrame(body, msg)
			runtime.ReadMemStats(&m1)
			grew = m1.TotalAlloc - m0.TotalAlloc
		}
		if grew > limit {
			t.Fatalf("decoding a %d-byte frame allocated %d bytes (limit %d)", len(frame), grew, limit)
		}
		dst, reused := dirtied(t, tag)
		if derr := decodeFrame(body, dst); (derr == nil) != (err == nil) {
			t.Fatalf("decode into a zero message: err %v; into a dirty one: err %v", err, derr)
		}
		if err != nil {
			if IsTransient(err) {
				t.Fatalf("decode failure classified transient: %v", err)
			}
			return
		}
		if !sameMessage(reused, msg) {
			t.Fatalf("%c decoded into a dirty message = %+v, into a zero one = %+v", tag, reused, msg)
		}
		var out bytes.Buffer
		var enc frameBufs
		if err := enc.writeFrame(&out, tag, msg); err != nil {
			t.Fatalf("re-encoding an accepted %c frame: %v", tag, err)
		}
		if used := frame[:4+1+len(body)]; !bytes.Equal(out.Bytes(), used) {
			t.Fatalf("accepted frame does not re-encode to itself:\n in  %x\n out %x", used, out.Bytes())
		}
	})
}

// corruptingProxy sits between a real Client and a real Server and
// rewrites one response frame on its way back: mangle is applied to the
// next response and then cleared, so the exchange after a corrupted one
// is clean. A rewrite that returns fewer bytes than the frame models a
// cut: the proxy closes the connection after delivering them. So does
// one that changed the length prefix — the stream cannot be in step
// after that, and without the close only the caller's own deadline
// would end the client's wait for bytes that never come
// (TestClientDeadline covers that path).
type corruptingProxy struct {
	ln       net.Listener
	upstream string
	wg       sync.WaitGroup

	mu     sync.Mutex
	mangle func(frame []byte) []byte
}

func startCorruptingProxy(t *testing.T, upstream string) *corruptingProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	p := &corruptingProxy{ln: ln, upstream: upstream}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				p.relay(conn)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		p.wg.Wait()
	})
	return p
}

// rawFrame reads one whole frame, prefix included.
func rawFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	frame := make([]byte, 4+binary.BigEndian.Uint32(hdr[:]))
	copy(frame, hdr[:])
	_, err := io.ReadFull(r, frame[4:])
	return frame, err
}

func (p *corruptingProxy) relay(client net.Conn) {
	defer client.Close()
	server, err := net.Dial("tcp", p.upstream)
	if err != nil {
		return
	}
	defer server.Close()
	// Idle relays end when the test's client closes its pool, or here.
	client.SetDeadline(time.Now().Add(30 * time.Second))
	for {
		req, err := rawFrame(client)
		if err != nil {
			return
		}
		if _, err := server.Write(req); err != nil {
			return
		}
		resp, err := rawFrame(server)
		if err != nil {
			return
		}
		p.mu.Lock()
		mangle := p.mangle
		p.mangle = nil
		p.mu.Unlock()
		out := resp
		if mangle != nil {
			out = mangle(append([]byte(nil), resp...))
		}
		if _, err := client.Write(out); err != nil {
			return
		}
		if len(out) != len(resp) || !bytes.Equal(out[:4], resp[:4]) {
			return
		}
	}
}

// TestCorruptionSweep flips every byte and cuts at every offset of a
// valid response frame between a real Client and Server. Every case
// must end promptly as a decoded response, a transient torn-frame
// error, or a permanent decode error; a cut is always transient and a
// body flip never is; and the next exchange on the same client must be
// clean — no corrupted exchange may leave a poisoned connection parked
// in the pool.
func TestCorruptionSweep(t *testing.T) {
	want := rankedResponse(2)
	proxy := startCorruptingProxy(t, startStub(t, stubHandler{want}))
	req := fullRequest()
	frame := frameOf(t, tagRetrieveResp, want)

	// Each case gets a client of its own: the corrupted exchange runs on
	// a fresh dial (Client.call would transparently redo a transient
	// failure on a pooled connection, hiding its classification), the
	// clean one on whatever the first left in the pool.
	sweep := func(label string, mangle func([]byte) []byte, check func(err error)) {
		t.Helper()
		cl := NewClient(proxy.ln.Addr().String(), time.Second, 1)
		defer cl.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		proxy.mu.Lock()
		proxy.mangle = mangle
		proxy.mu.Unlock()
		_, err := cl.Retrieve(ctx, req)
		if errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: hung until the caller's deadline", label)
		}
		check(err)
		got, err := cl.Retrieve(ctx, req)
		if err != nil {
			t.Fatalf("%s: clean exchange after the corrupted one failed: %v", label, err)
		}
		sameBits(t, label, want, got)
	}

	sweep("clean", nil, func(err error) {
		if err != nil {
			t.Fatalf("uncorrupted exchange: %v", err)
		}
	})
	for at := range frame {
		for _, mask := range []byte{0xff, 0x01} {
			sweep("flip", func(f []byte) []byte { f[at] ^= mask; return f }, func(err error) {
				if at >= 5 && IsTransient(err) {
					t.Fatalf("flip %#x at offset %d: classified transient (%v); a whole frame that fails to decode is permanent", mask, at, err)
				}
			})
		}
		sweep("cut", func(f []byte) []byte { return f[:at] }, func(err error) {
			if !IsTransient(err) {
				t.Fatalf("cut at offset %d: err = %v, want a transient torn-frame error", at, err)
			}
		})
	}
}

// TestQueryOptionsRoundTrip checks that FromOptions carries every wire
// field and that Apply overlays them onto a server's base options while
// keeping the base's build-time NoSimCache, its StopAfterMatches and its
// observers.
func TestQueryOptionsRoundTrip(t *testing.T) {
	req := retrieval.Options{
		TopK: 7, Beam: 3, CrossVideo: true, AnnotatedOnly: true,
		CoarseCandidates: 12, NoSimCache: true, StopAfterMatches: true,
	}
	tracer := &retrieval.CollectTracer{}
	base := retrieval.Options{TopK: 1, Beam: 9, Tracer: tracer}
	got := FromOptions(req).Apply(base)
	want := req
	want.NoSimCache = false
	want.StopAfterMatches = false
	want.Tracer = tracer
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Apply(FromOptions(req)) = %+v, want %+v", got, want)
	}
	if FromOptions(retrieval.Options{}) != (QueryOptions{}) {
		t.Error("zero options produced non-zero wire options")
	}
	if !FromOptions(req).Apply(retrieval.Options{StopAfterMatches: true}).StopAfterMatches {
		t.Error("Apply overwrote the server's own StopAfterMatches")
	}
}
