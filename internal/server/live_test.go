package server

// Live-ingest suite: end-to-end accept/serve/compact, the differential
// gates (delta serving is oracle-consistent per sub-model and merges
// exactly like MergeRanked; compaction is bit-identical to an offline
// build over the union corpus), crash-safety under fault injection
// (no acked video is ever lost; an un-acked one is never half-served),
// journal replay across restarts, and a -race hammer mixing ingest,
// queries, feedback, and background compaction.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/videodb/hmmm/internal/api"
	"github.com/videodb/hmmm/internal/client"
	"github.com/videodb/hmmm/internal/coord"
	"github.com/videodb/hmmm/internal/dataset"
	"github.com/videodb/hmmm/internal/faultinject"
	"github.com/videodb/hmmm/internal/feedback"
	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/ingest"
	"github.com/videodb/hmmm/internal/live"
	"github.com/videodb/hmmm/internal/matn"
	"github.com/videodb/hmmm/internal/mining"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/retrieval/retrievaltest"
	"github.com/videodb/hmmm/internal/shotdetect"
	"github.com/videodb/hmmm/internal/store"
	"github.com/videodb/hmmm/internal/videomodel"
)

// Shared slow fixtures: the classifier renders 9 classes of labeled
// shots to train, and the corpus renders its whole archive; both are
// deterministic, so every test can share one instance.
var (
	liveOnce       sync.Once
	liveClassifier *mining.Tree
	liveCorpus     *dataset.Corpus
	liveFixtureErr error
)

func liveFixtures(t *testing.T) (*dataset.Corpus, *ingest.Pipeline) {
	t.Helper()
	liveOnce.Do(func() {
		liveClassifier, liveFixtureErr = ingest.TrainClassifier(1, 12, mining.Config{})
		if liveFixtureErr != nil {
			return
		}
		liveCorpus, liveFixtureErr = dataset.Build(dataset.Config{
			Seed: 31, Videos: 4, Shots: 80, Annotated: 24, Fast: true,
		})
	})
	if liveFixtureErr != nil {
		t.Fatal(liveFixtureErr)
	}
	p, err := ingest.NewPipeline(shotdetect.DefaultConfig(), liveClassifier, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return liveCorpus, p
}

var liveBuild = hmmm.BuildOptions{LearnP12: true}

// newLiveServer builds a server with live ingest over the shared
// corpus. The caller fills the live config's paths/triggers; Archive,
// Features, Pipeline, and Build are wired here.
func newLiveServer(t *testing.T, lc live.Config, scfg Config) (*Server, *httptest.Server) {
	t.Helper()
	c, p := liveFixtures(t)
	lc.Archive = c.Archive
	lc.Features = c.Features
	if lc.Pipeline == nil {
		lc.Pipeline = p
	}
	lc.Build = liveBuild
	if scfg.Model == nil {
		m, err := hmmm.Build(c.Archive, c.Features, liveBuild)
		if err != nil {
			t.Fatal(err)
		}
		scfg.Model = m
	}
	scfg.Live = &lc
	s, err := New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// liveEventHeavy is a shot timeline the trained classifier reliably
// annotates (the same classes the ingest package's own e2e test uses).
var liveEventHeavy = []string{"goal", "goal_kick", "yellow_card"}

func mustIngest(t *testing.T, ts *httptest.Server, name string, seed uint64) *api.IngestResponse {
	t.Helper()
	resp, err := client.New(ts.URL, nil).Ingest(context.Background(), api.IngestRequest{
		Name: name, Seed: seed, Events: liveEventHeavy, ShotMS: 3000,
	})
	if err != nil {
		t.Fatalf("ingest %s: %v", name, err)
	}
	if resp.AutoAnnotated == 0 {
		t.Fatalf("ingest %s: accepted with zero annotated shots", name)
	}
	return resp
}

func TestIngestEndToEnd(t *testing.T) {
	dir := t.TempDir()
	s, ts := newLiveServer(t, live.Config{LogPath: filepath.Join(dir, "ingest.journal")}, Config{})
	cl := client.New(ts.URL, nil)
	ctx := context.Background()
	base := s.current.Load().model.NumVideos()
	offset := s.current.Load().model.NumStates()

	ack := mustIngest(t, ts, "live-1", 41)
	if ack.FreshVideos != 1 || ack.DeltaGeneration != 1 || ack.ModelGeneration != 1 {
		t.Fatalf("ack bookkeeping = %+v", ack)
	}
	if ack.VideoID <= base {
		t.Fatalf("video id %d not past the corpus", ack.VideoID)
	}

	// The accepted video serves immediately: a query scoped to it must
	// match, stamped with the delta size, and its (remapped) states must
	// resolve through /api/states to the acked video.
	q, err := cl.Query(ctx, api.QueryRequest{
		Pattern: "goal | goal_kick | yellow_card", ScopeVideo: ack.VideoID, TopK: 5, Beam: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if q.FreshVideos != 1 {
		t.Errorf("fresh_videos = %d, want 1", q.FreshVideos)
	}
	if len(q.Matches) == 0 {
		t.Fatal("accepted video not retrievable")
	}
	for _, m := range q.Matches {
		for i, st := range m.States {
			if st < offset {
				t.Fatalf("delta match state %d below the main range %d", st, offset)
			}
			if len(m.Events[i]) == 0 {
				t.Errorf("state %d rendered without event names", st)
			}
			shot, err := cl.State(ctx, st)
			if err != nil {
				t.Fatalf("state %d not resolvable: %v", st, err)
			}
			if shot.Video != ack.VideoID {
				t.Errorf("state %d resolves to video %d, want %d", st, shot.Video, ack.VideoID)
			}
			// Feedback on delta states must be rejected: the feedback log's
			// coordinates are main-model states, and the delta is transient.
			if _, err := cl.Feedback(ctx, m.States); err == nil {
				t.Error("feedback on delta states accepted")
			}
		}
	}

	// Health and stats carry the ingest sections; /metrics carries the
	// scrape-time gauges.
	h, err := cl.HealthDetail(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Ingest == nil || h.Ingest.FreshVideos != 1 || h.Ingest.JournalRecords != 1 {
		t.Errorf("health ingest section = %+v", h.Ingest)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingest == nil || st.Ingest.Accepted != 1 || st.Ingest.DeltaGeneration != 1 ||
		st.Ingest.FreshVideos != 1 || st.Ingest.JournalRecords != 1 {
		t.Errorf("stats ingest section = %+v", st.Ingest)
	}
	text, err := cl.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"hmmm_ingest_fresh_videos 1", "hmmm_ingest_delta_generation 1",
		"hmmm_ingest_accepted_total 1"} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// A second accept bumps the delta generation and the journal.
	ack2 := mustIngest(t, ts, "live-2", 42)
	if ack2.FreshVideos != 2 || ack2.DeltaGeneration != 2 {
		t.Fatalf("second ack = %+v", ack2)
	}
	if ack2.VideoID == ack.VideoID {
		t.Fatal("video ID reused")
	}
}

func TestIngestValidation(t *testing.T) {
	dir := t.TempDir()
	_, ts := newLiveServer(t, live.Config{LogPath: filepath.Join(dir, "j")}, Config{})
	cases := []struct {
		name string
		req  api.IngestRequest
		code int
	}{
		{"no name", api.IngestRequest{Events: []string{"goal"}}, http.StatusBadRequest},
		{"no events", api.IngestRequest{Name: "x"}, http.StatusBadRequest},
		{"bad event", api.IngestRequest{Name: "x", Events: []string{"own_goal"}}, http.StatusBadRequest},
		{"too many shots", api.IngestRequest{Name: "x", Events: make([]string, maxIngestShots+1)}, http.StatusBadRequest},
		{"shot_ms too small", api.IngestRequest{Name: "x", Events: []string{"goal"}, ShotMS: 10}, http.StatusBadRequest},
		{"shot_ms too large", api.IngestRequest{Name: "x", Events: []string{"goal"}, ShotMS: 1 << 20}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if code := postIngestStatus(t, ts, tc.req); code != tc.code {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.code)
		}
	}
}

// postIngestStatus posts an ingest request and returns the status code.
func postIngestStatus(t *testing.T, ts *httptest.Server, req api.IngestRequest) int {
	t.Helper()
	_, err := client.New(ts.URL, nil).Ingest(context.Background(), req)
	if err == nil {
		return http.StatusOK
	}
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		return apiErr.Status
	}
	t.Fatalf("ingest failed without an API status: %v", err)
	return 0
}

func TestIngestDisabledAndCoordinatorMode(t *testing.T) {
	// Without Config.Live the route answers 501 with a pointer to -ingest.
	_, ts := testServer(t, 0)
	if code := postIngestStatus(t, ts, api.IngestRequest{Name: "x", Events: []string{"goal"}}); code != http.StatusNotImplemented {
		t.Errorf("ingest on a non-live server: status %d, want 501", code)
	}
	// A coordinator cannot host live ingest: it owns no model to extend.
	c, p := liveFixtures(t)
	m, err := hmmm.Build(c.Archive, c.Features, liveBuild)
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{
		Model:       m,
		Coordinator: &coord.Coordinator{},
		Live:        &live.Config{Pipeline: p, Archive: c.Archive, Features: c.Features},
	})
	if err == nil || !strings.Contains(err.Error(), "coordinator") {
		t.Fatalf("coordinator+live accepted (err = %v)", err)
	}
}

// TestDeltaServingOracleConsistent is the pre-compaction differential
// gate: the served merged ranking, split at the remap offset, must be
// oracle-consistent against each sub-model's exhaustive enumeration,
// and the merge itself must equal retrieval.MergeRanked over
// independent per-model engine runs — bit-identical states, scores,
// and order.
func TestDeltaServingOracleConsistent(t *testing.T) {
	dir := t.TempDir()
	s, ts := newLiveServer(t, live.Config{LogPath: filepath.Join(dir, "j")}, Config{})
	cl := client.New(ts.URL, nil)
	mustIngest(t, ts, "delta-a", 41)
	mustIngest(t, ts, "delta-b", 52)

	snap := s.current.Load()
	d := snap.delta
	if d == nil || d.Len() != 2 {
		t.Fatalf("delta = %+v", d)
	}
	const topK, beam = 8, 8
	qopts := s.opts
	qopts.TopK, qopts.Beam, qopts.AnnotatedOnly = topK, beam, true

	for _, pattern := range []string{"goal", "goal_kick", "goal -> goal_kick", "yellow_card"} {
		queries, err := matn.CompileString(pattern)
		if err != nil {
			t.Fatal(err)
		}
		q := queries[0]
		resp, err := cl.Query(context.Background(), api.QueryRequest{Pattern: pattern, TopK: topK, Beam: beam})
		if err != nil {
			t.Fatal(err)
		}

		// Independent engine runs over each sub-model, merged exactly the
		// way the server must merge them.
		mainRes, err := snap.engine.WithOptions(qopts).Retrieve(q)
		if err != nil {
			t.Fatal(err)
		}
		deltaRes, err := d.Engine.WithOptions(qopts).Retrieve(q)
		if err != nil {
			t.Fatal(err)
		}
		retrievaltest.Lift(deltaRes.Matches, d.Offset)
		merged := retrieval.MergeRanked(append(mainRes.Matches, deltaRes.Matches...), topK)
		if len(merged) != len(resp.Matches) {
			t.Fatalf("%s: served %d matches, independent merge has %d", pattern, len(resp.Matches), len(merged))
		}
		var servedMain, servedDeltaLocal []retrieval.Match
		for i, mj := range resp.Matches {
			if !reflect.DeepEqual(mj.States, merged[i].States) || mj.Score != merged[i].Score {
				t.Fatalf("%s: rank %d served (%v, %v), independent merge (%v, %v)",
					pattern, i, mj.States, mj.Score, merged[i].States, merged[i].Score)
			}
			m := retrieval.Match{States: append([]int(nil), mj.States...), Score: mj.Score,
				Weights: append([]float64(nil), mj.Weights...)}
			for j := range mj.Shots {
				m.Shots = append(m.Shots, videomodel.ShotID(mj.Shots[j]))
				m.Videos = append(m.Videos, videomodel.VideoID(mj.Videos[j]))
			}
			if len(m.States) > 0 && m.States[0] >= d.Offset {
				for j := range m.States {
					m.States[j] -= d.Offset
				}
				servedDeltaLocal = append(servedDeltaLocal, m)
			} else {
				servedMain = append(servedMain, m)
			}
		}
		// Each split is oracle-consistent against its own sub-model.
		mainOracle := retrievaltest.Oracle(t, snap.model, q, retrievaltest.OracleLimit)
		retrievaltest.RequireOracleConsistent(t, pattern+" (main)", mainOracle, servedMain)
		deltaOracle := retrievaltest.Oracle(t, d.Model, q, retrievaltest.OracleLimit)
		retrievaltest.RequireOracleConsistent(t, pattern+" (delta)", deltaOracle, servedDeltaLocal)
	}
}

// TestCompactionMatchesOfflineBuild is the post-compaction differential
// gate: after folding, the served model must be bit-identical to an
// offline hmmm.Build over the union corpus followed by the same feedback
// Retrain, the journal truncated, and the folded videos still
// retrievable from the main model.
func TestCompactionMatchesOfflineBuild(t *testing.T) {
	for _, withFeedback := range []bool{false, true} {
		name := "no feedback"
		if withFeedback {
			name = "feedback"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			logPath := filepath.Join(dir, "ingest.journal")
			snapPath := filepath.Join(dir, "corpus.snapshot")
			s, ts := newLiveServer(t, live.Config{LogPath: logPath, SnapshotPath: snapPath}, Config{})
			cl := client.New(ts.URL, nil)
			c, _ := liveFixtures(t)

			// Feedback recorded against the base model must be replayed onto the
			// rebuild: base state indices survive the union unchanged.
			base := s.current.Load().model
			var marks [][]int
			if withFeedback {
				marks = [][]int{{0, 1}, {0, 1}, {2}, {base.NumStates() - 1}}
			}
			for _, m := range marks {
				if _, err := cl.Feedback(context.Background(), m); err != nil {
					t.Fatal(err)
				}
			}

			ack1 := mustIngest(t, ts, "fold-a", 41)
			ack2 := mustIngest(t, ts, "fold-b", 52)

			// The journal on disk is the record of what was accepted; the
			// offline build over base ∪ journal is the ground truth.
			recs, _, _, err := live.LoadRecover(logPath)
			if err != nil || len(recs) != 2 {
				t.Fatalf("journal = %d records, err %v", len(recs), err)
			}
			union, feats, err := live.Union(c.Archive, c.Features, recs)
			if err != nil {
				t.Fatal(err)
			}
			offline, err := hmmm.Build(union, feats, liveBuild)
			if err != nil {
				t.Fatal(err)
			}
			if len(marks) > 0 {
				log := feedback.NewLog()
				for _, m := range marks {
					if err := log.MarkPositive(offline, m); err != nil {
						t.Fatal(err)
					}
				}
				if offline, err = feedback.NewTrainer(1).Retrain(offline, log); err != nil {
					t.Fatal(err)
				}
			}

			if err := compactNow(s); err != nil {
				t.Fatalf("compaction failed: %v", err)
			}
			if !reflect.DeepEqual(s.current.Load().model, offline) {
				t.Fatal("compacted model differs from the offline build (plus feedback replay) over the union corpus")
			}
			if got := s.current.Load().model.DomainName(); got != base.DomainName() {
				t.Fatalf("compaction restamped the model %q, want %q", got, base.DomainName())
			}
			// And so do its rankings, for every query shape the suite covers.
			eng, err := retrieval.NewEngine(offline, retrieval.Options{TopK: 8, Beam: 8, AnnotatedOnly: true})
			if err != nil {
				t.Fatal(err)
			}
			snap := s.current.Load()
			sopts := s.opts
			sopts.TopK, sopts.Beam, sopts.AnnotatedOnly = 8, 8, true
			for i, q := range retrievaltest.Queries(offline) {
				want, err := eng.Retrieve(q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := snap.engine.WithOptions(sopts).Retrieve(q)
				if err != nil {
					t.Fatal(err)
				}
				// The offline engine ran with plain options; pin the ranking only
				// (cost accounting may differ via the sim cache flag).
				retrievaltest.RequireSameMatches(t, "post-compaction query "+string(rune('a'+i)), want.Matches, got.Matches)
			}

			// Observable aftermath: delta empty, generation bumped, journal
			// truncated, corpus snapshot durable, videos now in the main model.
			h, err := cl.HealthDetail(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if h.Ingest.FreshVideos != 0 || h.Ingest.JournalRecords != 0 {
				t.Errorf("post-compaction health = %+v", h.Ingest)
			}
			if h.ModelGeneration != 2 {
				t.Errorf("model generation = %d, want 2", h.ModelGeneration)
			}
			st, err := cl.Stats(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if st.Ingest.Compactions != 1 || st.Ingest.LastCompactUnixMS == 0 {
				t.Errorf("post-compaction stats = %+v", st.Ingest)
			}
			after, _, _, err := live.LoadRecover(logPath)
			if err != nil || len(after) != 0 {
				t.Errorf("journal after compaction: %d records, err %v", len(after), err)
			}
			saved, _, err := store.LoadCorpusRecover(snapPath)
			if err != nil {
				t.Fatalf("corpus snapshot unreadable: %v", err)
			}
			if len(saved.Archive.Videos) != len(union.Videos) {
				t.Errorf("snapshot has %d videos, want %d", len(saved.Archive.Videos), len(union.Videos))
			}
			for _, id := range []int{ack1.VideoID, ack2.VideoID} {
				q, err := cl.Query(context.Background(), api.QueryRequest{
					Pattern: "goal | goal_kick | yellow_card", ScopeVideo: id, TopK: 5, Beam: 5,
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(q.Matches) == 0 {
					t.Errorf("video %d lost by compaction", id)
				}
				if q.FreshVideos != 0 {
					t.Errorf("fresh_videos = %d after compaction", q.FreshVideos)
				}
			}
			// Idempotent on an empty delta.
			if err := compactNow(s); err != nil {
				t.Fatalf("empty compaction: %v", err)
			}
		})
	}
}

// TestCompactionSizeTriggerRuns: the CompactAfter threshold fires the
// background fold without any manual call.
func TestCompactionSizeTriggerRuns(t *testing.T) {
	dir := t.TempDir()
	s, ts := newLiveServer(t, live.Config{
		LogPath: filepath.Join(dir, "j"), SnapshotPath: filepath.Join(dir, "c"), CompactAfter: 2,
	}, Config{})
	mustIngest(t, ts, "bg-a", 41)
	mustIngest(t, ts, "bg-b", 52)
	deadline := time.Now().Add(10 * time.Second)
	for s.metrics.compactions.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background compaction never ran")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Wait for the publish to be observable, then check the fold.
	for s.current.Load().delta.Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("delta not folded after compaction")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if s.current.Load().model.NumVideos() != len(liveCorpus.Archive.Videos)+2 {
		t.Errorf("main model has %d videos", s.current.Load().model.NumVideos())
	}
}

// TestShutdownWaitsForBackgroundCompaction: a compaction started by the
// last accepted video may still be queued on retrainMu — or writing the
// corpus snapshot — when the HTTP drain completes. Shutdown must not
// return before it has finished: callers remove the live directory next
// (hmmmload's ingest mode did, and logged "corpus.snapshot.tmp: no such
// file or directory").
func TestShutdownWaitsForBackgroundCompaction(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "corpus.snapshot")
	s, ts := newLiveServer(t, live.Config{
		LogPath: filepath.Join(dir, "ingest.journal"), SnapshotPath: snapPath,
	}, Config{})
	mustIngest(t, ts, "down-a", 41)
	mustIngest(t, ts, "down-b", 52)

	// Queue a background compaction behind a held retrainMu: the state an
	// accept leaves behind when the trigger fires as the drain begins.
	s.retrainMu.Lock()
	s.live.cfg.CompactAfter = 2
	s.maybeCompactAsync()
	if !s.live.compacting.Load() {
		s.retrainMu.Unlock()
		t.Fatal("size trigger did not start a background compaction")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	err := s.waitCompaction(ctx)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		s.retrainMu.Unlock()
		t.Fatalf("wait on a queued compaction returned %v, want the grace to expire", err)
	}
	down := make(chan error, 1)
	go func() { down <- s.Shutdown(ts.Config, 30*time.Second) }()
	s.retrainMu.Unlock()
	if err := <-down; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Everything below is read the instant Shutdown returns.
	if s.live.compacting.Load() {
		t.Fatal("Shutdown returned with the compaction still in flight")
	}
	if got := s.ingestStats(s.current.Load()); got.Compactions != 1 || got.CompactFailures != 0 {
		t.Fatalf("compactions = %d, compact_failures = %d, want 1 and 0", got.Compactions, got.CompactFailures)
	}
	corpus, from, err := store.LoadCorpusRecover(snapPath)
	if err != nil || from != snapPath {
		t.Fatalf("snapshot after shutdown: loaded from %q, err %v", from, err)
	}
	if got, want := len(corpus.Archive.Videos), len(liveCorpus.Archive.Videos)+2; got != want {
		t.Fatalf("snapshot holds %d videos, want %d", got, want)
	}
	if _, err := os.Stat(snapPath + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("snapshot temp file left behind (stat err %v)", err)
	}
}

// TestIngestReplayAfterRestart: without a snapshot path the journal is
// the only durable copy; a restart replays every record into the delta
// with stable IDs.
func TestIngestReplayAfterRestart(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "ingest.journal")
	_, ts1 := newLiveServer(t, live.Config{LogPath: logPath}, Config{})
	ack1 := mustIngest(t, ts1, "restart-a", 41)
	ack2 := mustIngest(t, ts1, "restart-b", 52)
	ts1.Close()

	s2, ts2 := newLiveServer(t, live.Config{LogPath: logPath}, Config{})
	if got := s2.metrics.ingestReplayed.Value(); got != 2 {
		t.Fatalf("replayed = %d, want 2", got)
	}
	h, err := client.New(ts2.URL, nil).HealthDetail(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Ingest.FreshVideos != 2 || h.Ingest.JournalRecords != 2 {
		t.Fatalf("post-restart health = %+v", h.Ingest)
	}
	for _, id := range []int{ack1.VideoID, ack2.VideoID} {
		q, err := client.New(ts2.URL, nil).Query(context.Background(), api.QueryRequest{
			Pattern: "goal | goal_kick | yellow_card", ScopeVideo: id, TopK: 5, Beam: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(q.Matches) == 0 {
			t.Errorf("video %d lost across restart", id)
		}
	}
	// A post-restart accept must not reuse the replayed videos' IDs.
	ack3 := mustIngest(t, ts2, "restart-c", 63)
	if ack3.VideoID == ack1.VideoID || ack3.VideoID == ack2.VideoID {
		t.Errorf("video ID %d reused after restart", ack3.VideoID)
	}
}

// TestIngestJournalAppendFailureNotAcked: when the journal append
// cannot be made durable the request fails, nothing is published, and
// the on-disk journal still loads the previous state — the no-acked-
// video-lost invariant's contrapositive (a failed ack leaves no trace).
func TestIngestJournalAppendFailureNotAcked(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "ingest.journal")
	fs := &faultinject.FS{}
	s, ts := newLiveServer(t, live.Config{LogPath: logPath}, Config{FS: fs})
	mustIngest(t, ts, "durable-a", 41)

	fs.FailAfter(faultinject.OpCreate, 0, errors.New("induced: disk full"))
	if code := postIngestStatus(t, ts, api.IngestRequest{
		Name: "lost", Seed: 52, Events: liveEventHeavy, ShotMS: 3000,
	}); code != http.StatusInternalServerError {
		t.Fatalf("undurable ingest: status %d, want 500", code)
	}
	if got := s.current.Load().delta.Len(); got != 1 {
		t.Fatalf("failed accept published: delta = %d videos", got)
	}
	if s.metrics.ingestPersistFailures.Value() != 1 {
		t.Error("persist failure not counted")
	}
	recs, _, _, err := live.LoadRecover(logPath)
	if err != nil || len(recs) != 1 {
		t.Fatalf("journal after failed append: %d records, err %v", len(recs), err)
	}

	// The disk recovered: the same video is accepted cleanly, and a
	// restart serves exactly the acked set.
	fs.Reset()
	ack2 := mustIngest(t, ts, "durable-b", 52)
	s2, _ := newLiveServer(t, live.Config{LogPath: logPath}, Config{})
	if got := s2.current.Load().delta.Len(); got != 2 {
		t.Fatalf("restart recovered %d videos, want 2", got)
	}
	found := false
	for _, r := range s2.current.Load().delta.Records {
		if int(r.Video) == ack2.VideoID {
			found = true
		}
	}
	if !found {
		t.Errorf("acked video %d missing after restart", ack2.VideoID)
	}
}

// TestCompactionCrashMidPersist: a failure while persisting the merged
// corpus aborts the fold — the delta keeps serving, the journal stays
// intact, and a retry succeeds.
func TestCompactionCrashMidPersist(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "j")
	fs := &faultinject.FS{}
	s, ts := newLiveServer(t, live.Config{
		LogPath: logPath, SnapshotPath: filepath.Join(dir, "c"),
	}, Config{FS: fs})
	mustIngest(t, ts, "mid-a", 41)
	mustIngest(t, ts, "mid-b", 52)

	fs.FailAfter(faultinject.OpCreate, 0, errors.New("induced: corpus persist"))
	err := compactNow(s)
	if err == nil || !strings.Contains(err.Error(), "persisting merged corpus") {
		t.Fatalf("compaction error = %v", err)
	}
	if s.metrics.compactFailures.Value() != 1 {
		t.Error("compaction failure not counted")
	}
	if got := s.current.Load().delta.Len(); got != 2 {
		t.Fatalf("failed compaction disturbed the delta: %d videos", got)
	}
	if s.current.Load().gen != 1 {
		t.Fatal("failed compaction published a generation")
	}
	recs, _, _, err := live.LoadRecover(logPath)
	if err != nil || len(recs) != 2 {
		t.Fatalf("journal after failed compaction: %d records, err %v", len(recs), err)
	}

	fs.Reset()
	if err := compactNow(s); err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if got := s.current.Load().delta.Len(); got != 0 {
		t.Fatalf("retry left %d delta videos", got)
	}
}

// TestCompactionCrashBeforeTruncation: the corpus snapshot lands but
// the journal truncation is lost — the canonical crash window. The
// fold still publishes; a restart booted from the snapshot reconciles
// the stale journal records as already-compacted, with no loss and no
// duplication.
func TestCompactionCrashBeforeTruncation(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "ingest.journal")
	snapPath := filepath.Join(dir, "corpus.snapshot")
	fs := &faultinject.FS{}
	s, ts := newLiveServer(t, live.Config{LogPath: logPath, SnapshotPath: snapPath}, Config{FS: fs})
	ack1 := mustIngest(t, ts, "trunc-a", 41)
	ack2 := mustIngest(t, ts, "trunc-b", 52)

	// First create in compactLocked is the corpus snapshot (succeeds);
	// the second is the journal truncation (crashes). The op counter is
	// cumulative, so the budget is relative to the ingests' appends.
	fs.FailAfter(faultinject.OpCreate, fs.Calls(faultinject.OpCreate)+1,
		errors.New("induced: crash before truncation"))
	if err := compactNow(s); err != nil {
		t.Fatalf("compaction must tolerate a lost truncation: %v", err)
	}
	if got := s.current.Load().delta.Len(); got != 0 {
		t.Fatalf("delta not folded: %d videos", got)
	}
	recs, _, _, err := live.LoadRecover(logPath)
	if err != nil || len(recs) != 2 {
		t.Fatalf("journal should have survived: %d records, err %v", len(recs), err)
	}

	// "Restart" from the persisted snapshot, stale journal in place.
	corpus, _, err := store.LoadCorpusRecover(snapPath)
	if err != nil {
		t.Fatalf("corpus snapshot unreadable: %v", err)
	}
	m2, err := hmmm.Build(corpus.Archive, corpus.Features, liveBuild)
	if err != nil {
		t.Fatal(err)
	}
	_, p := liveFixtures(t)
	s2, err := New(Config{Model: m2, Live: &live.Config{
		LogPath: logPath, SnapshotPath: snapPath, Pipeline: p,
		Archive: corpus.Archive, Features: corpus.Features, Build: liveBuild,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.metrics.ingestReplaySkipped.Value(); got != 2 {
		t.Errorf("replay skipped = %d, want 2", got)
	}
	if got := s2.current.Load().delta.Len(); got != 0 {
		t.Errorf("stale journal records replayed into the delta: %d", got)
	}
	// No loss, no duplication: every acked video appears exactly once.
	for _, id := range []int{ack1.VideoID, ack2.VideoID} {
		n := 0
		for _, vid := range s2.current.Load().model.VideoIDs {
			if int(vid) == id {
				n++
			}
		}
		if n != 1 {
			t.Errorf("video %d appears %d times after recovery", id, n)
		}
	}
}

// TestIngestJournalTornFileRecoversFromBak: a corrupted journal main
// file falls back to the .bak predecessor at boot — the same recovery
// chain the internal/live byte-flip sweep proves exhaustively, here
// wired through server startup.
func TestIngestJournalTornFileRecoversFromBak(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "ingest.journal")
	_, ts1 := newLiveServer(t, live.Config{LogPath: logPath}, Config{})
	mustIngest(t, ts1, "torn-a", 41)
	mustIngest(t, ts1, "torn-b", 52) // second write leaves the 1-record version as .bak
	ts1.Close()

	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(logPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, _ := newLiveServer(t, live.Config{LogPath: logPath}, Config{})
	if got := s2.metrics.ingestLogRecoveries.Value(); got != 1 {
		t.Errorf("log recoveries = %d, want 1", got)
	}
	if got := s2.metrics.ingestLogCorrupt.Value(); got == 0 {
		t.Error("corrupt candidate not counted")
	}
	if got := s2.current.Load().delta.Len(); got != 1 {
		t.Errorf("recovered %d videos from .bak, want 1", got)
	}
}

// TestRetrainKeepsDelta: a feedback-triggered retrain republishes the
// main model without touching the delta — the remap offset is the
// state count, which retraining never changes.
func TestRetrainKeepsDelta(t *testing.T) {
	dir := t.TempDir()
	s, ts := newLiveServer(t, live.Config{LogPath: filepath.Join(dir, "j")}, Config{})
	cl := client.New(ts.URL, nil)
	ack := mustIngest(t, ts, "retrain-a", 41)
	if _, err := cl.Feedback(context.Background(), []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Retrain(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := s.current.Load()
	if snap.gen != 2 {
		t.Fatalf("generation = %d, want 2", snap.gen)
	}
	if snap.delta.Len() != 1 {
		t.Fatalf("retrain dropped the delta: %d videos", snap.delta.Len())
	}
	q, err := cl.Query(context.Background(), api.QueryRequest{
		Pattern: "goal | goal_kick | yellow_card", ScopeVideo: ack.VideoID, TopK: 5, Beam: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Matches) == 0 || q.FreshVideos != 1 {
		t.Errorf("delta not served after retrain: %d matches, fresh %d", len(q.Matches), q.FreshVideos)
	}
}

// TestIngestRaceHammer mixes concurrent ingest, queries, feedback, and
// size-triggered background compaction under -race, then proves the
// no-acked-video-lost invariant: after a final fold, every acked video
// is in the main model exactly once.
func TestIngestRaceHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("hammer in -short mode")
	}
	dir := t.TempDir()
	s, ts := newLiveServer(t, live.Config{
		LogPath: filepath.Join(dir, "j"), SnapshotPath: filepath.Join(dir, "c"), CompactAfter: 2,
	}, Config{RetrainThreshold: 3})
	cl := client.New(ts.URL, nil)
	ctx := context.Background()

	const ingesters, videosEach = 2, 2
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		acked []int
	)
	stop := make(chan struct{})
	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < videosEach; i++ {
				resp, err := cl.Ingest(ctx, api.IngestRequest{
					Name: "hammer", Seed: uint64(100*g + i + 1), Events: liveEventHeavy, ShotMS: 3000,
				})
				if err != nil {
					t.Errorf("hammer ingest: %v", err)
					return
				}
				mu.Lock()
				acked = append(acked, resp.VideoID)
				mu.Unlock()
			}
		}(g)
	}
	wg.Add(1)
	go func() { // queries race the publishes
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := cl.Query(ctx, api.QueryRequest{Pattern: "goal -> goal_kick", TopK: 5, Beam: 5}); err != nil {
				t.Errorf("hammer query: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // feedback triggers retrains concurrently with compaction
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := cl.Feedback(ctx, []int{i % 4, (i + 1) % 4}); err != nil {
				t.Errorf("hammer feedback: %v", err)
				return
			}
			if _, err := cl.HealthDetail(ctx); err != nil {
				t.Errorf("hammer health: %v", err)
				return
			}
		}
	}()
	// Wait for the ingesters, then stop the background load.
	done := make(chan struct{})
	go func() { defer close(done); wg.Wait() }()
	for {
		mu.Lock()
		n := len(acked)
		mu.Unlock()
		if n == ingesters*videosEach {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	<-done

	// Let any in-flight background compaction settle, then fold the rest.
	for s.live.compacting.Load() {
		time.Sleep(5 * time.Millisecond)
	}
	if err := compactNow(s); err != nil {
		t.Fatalf("final fold: %v", err)
	}
	m := s.current.Load().model
	for _, id := range acked {
		n := 0
		for _, vid := range m.VideoIDs {
			if int(vid) == id {
				n++
			}
		}
		if n != 1 {
			t.Errorf("acked video %d appears %d times after the hammer", id, n)
		}
	}
	if got := int(s.metrics.ingestAccepted.Value()); got != len(acked) {
		t.Errorf("accepted counter = %d, acked %d", got, len(acked))
	}
}

// compactNow folds the delta into a full model rebuild synchronously:
// the background trigger's deterministic counterpart.
func compactNow(s *Server) error {
	s.retrainMu.Lock()
	defer s.retrainMu.Unlock()
	return s.compactLocked()
}
