package server

import (
	"context"
	"encoding/json"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/videodb/hmmm/internal/client"
	"github.com/videodb/hmmm/internal/coord"
	"github.com/videodb/hmmm/internal/dataset"
	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/rpc"
	"github.com/videodb/hmmm/internal/shard"
)

// coordPair builds one model and serves it twice: locally, and as an
// HTTP coordinator scattering /api/query over real out-of-process-style
// shard servers (rpc.Server on loopback TCP), so tests can compare the
// two serving shapes end to end.
func coordPair(t *testing.T, k int) (plain, coordinated *httptest.Server, srv *Server, shardSrvs []*rpc.Server) {
	t.Helper()
	c, err := dataset.Build(dataset.Config{Seed: 31, Videos: 5, Shots: 200, Annotated: 50, Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := hmmm.Build(c.Archive, c.Features, hmmm.BuildOptions{LearnP12: true})
	if err != nil {
		t.Fatal(err)
	}
	shards, err := shard.Split(m, k)
	if err != nil {
		t.Fatal(err)
	}
	var transports [][]coord.Transport
	for i, sh := range shards {
		svc, err := rpc.NewShardService(sh, i, len(shards), retrieval.Options{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		rs := rpc.NewServer(svc, nil)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go rs.Serve(ln)
		t.Cleanup(func() { rs.Close() })
		shardSrvs = append(shardSrvs, rs)
		transports = append(transports, []coord.Transport{rpc.NewClient(ln.Addr().String(), time.Second, 2)})
	}
	co, err := coord.New(transports, retrieval.Options{}, coord.Options{
		RetryBase:      time.Millisecond,
		RetryMax:       5 * time.Millisecond,
		AttemptTimeout: 500 * time.Millisecond,
		EjectBackoff:   20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)

	ps, err := New(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := New(Config{Model: m.Clone(), Coordinator: co})
	if err != nil {
		t.Fatal(err)
	}
	plain = httptest.NewServer(ps.Handler())
	coordinated = httptest.NewServer(cs.Handler())
	t.Cleanup(plain.Close)
	t.Cleanup(coordinated.Close)
	return plain, coordinated, cs, shardSrvs
}

// TestCoordQueryMatchesLocal is the HTTP layer of the distributed
// exactness contract: the same queries against a coordinator (real TCP
// shard servers) and a local single-engine server over the same model
// return byte-identical match lists.
func TestCoordQueryMatchesLocal(t *testing.T) {
	plain, coordinated, _, _ := coordPair(t, 2)
	pc := client.New(plain.URL, nil)
	cc := client.New(coordinated.URL, nil)
	ctx := context.Background()
	reqs := []QueryRequest{
		{Pattern: "foul", TopK: 5, Beam: 4},
		{Pattern: "foul -> goal", TopK: 10, Beam: 8},
		{Pattern: "foul | corner_kick", TopK: 10, Beam: 8},
		{Pattern: "goal", TopK: 10, Beam: 4, SimilarShots: true},
	}
	for _, req := range reqs {
		want, err := pc.Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cc.Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		wb, _ := json.Marshal(want.Matches)
		gb, _ := json.Marshal(got.Matches)
		if string(wb) != string(gb) {
			t.Errorf("pattern %q: coordinated matches diverge\nlocal:       %s\ncoordinated: %s",
				req.Pattern, wb, gb)
		}
		if got.Cost.DegradedShards != 0 || got.Cost.Truncated {
			t.Errorf("pattern %q: healthy coordinated query degraded: %+v", req.Pattern, got.Cost)
		}
	}
}

// TestCoordExplain: retrieval runs on the shard servers, and the local
// engine over the same model explains the merged matches, so the
// explanations match a local server's byte for byte.
func TestCoordExplain(t *testing.T) {
	plain, coordinated, _, _ := coordPair(t, 2)
	ctx := context.Background()
	req := QueryRequest{Pattern: "foul -> goal", TopK: 5, Beam: 8, Explain: true}
	want, err := client.New(plain.URL, nil).Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.New(coordinated.URL, nil).Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Matches) == 0 {
		t.Fatal("no foul -> goal match to explain")
	}
	for _, m := range got.Matches {
		if len(m.Explanation) != len(m.States) {
			t.Fatalf("match %v: %d explanation steps for %d states", m.States, len(m.Explanation), len(m.States))
		}
	}
	wb, _ := json.Marshal(want.Matches)
	gb, _ := json.Marshal(got.Matches)
	if string(wb) != string(gb) {
		t.Errorf("coordinated explanations diverge\nlocal:       %s\ncoordinated: %s", wb, gb)
	}
}

// TestCoordStatsExposed pins the /api/stats coord section: shard count,
// per-endpoint health, and the query counter.
func TestCoordStatsExposed(t *testing.T) {
	plain, coordinated, _, _ := coordPair(t, 2)
	ctx := context.Background()
	cc := client.New(coordinated.URL, nil)
	if _, err := cc.Query(ctx, QueryRequest{Pattern: "foul", TopK: 3}); err != nil {
		t.Fatal(err)
	}
	st, err := cc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Coord == nil {
		t.Fatal("coordinator server reports no coord stats")
	}
	if st.Coord.Shards != 2 || len(st.Coord.Endpoints) != 2 {
		t.Fatalf("coord stats = %+v, want 2 shards / 2 endpoints", st.Coord)
	}
	for _, ep := range st.Coord.Endpoints {
		if ep.State != "healthy" {
			t.Errorf("endpoint %s state %q, want healthy", ep.Addr, ep.State)
		}
	}
	pst, err := client.New(plain.URL, nil).Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pst.Coord != nil {
		t.Errorf("local server reports coord stats: %+v", pst.Coord)
	}
}

// TestCoordDegradedSurfacesInJSON kills one shard server and checks the
// HTTP response commits the partial: 200, truncated, degraded_shards=1.
func TestCoordDegradedSurfacesInJSON(t *testing.T) {
	_, coordinated, _, shardSrvs := coordPair(t, 2)
	shardSrvs[1].Close()
	resp, err := client.New(coordinated.URL, nil).Query(context.Background(),
		QueryRequest{Pattern: "foul", TopK: 5})
	if err != nil {
		t.Fatalf("degraded query must commit, got error: %v", err)
	}
	if resp.Cost.DegradedShards != 1 || !resp.Cost.Truncated {
		t.Fatalf("cost = %+v, want degraded_shards=1 truncated=true", resp.Cost)
	}
}
