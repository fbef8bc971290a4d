// Live ingest: the server side of DESIGN.md §5i. Accepted videos are
// journaled durably (crash-safe checksummed log, internal/live), built
// into a Partial delta sub-model served alongside the main model, and
// folded into a full rebuild by background compaction. The accept path
// serializes on retrainMu with retrains and compactions; the query path
// stays lock-free — it observes (model, delta) pairs only through the
// snapshot pointer.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/videodb/hmmm/internal/api"
	"github.com/videodb/hmmm/internal/dataset"
	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/ingest"
	"github.com/videodb/hmmm/internal/live"
	"github.com/videodb/hmmm/internal/store"
	"github.com/videodb/hmmm/internal/videomodel"
)

// Bounds on one ingest request's synthesized timeline: enough for any
// realistic test clip, small enough that a single request cannot pin a
// worker rendering for minutes.
const (
	maxIngestShots      = 64
	defaultIngestShotMS = 3000
	minIngestShotMS     = 1000
	maxIngestShotMS     = 30000
)

// liveState is the server's mutable live-ingest state. The corpus
// fields (archive, features, journal, deltaRecs) are read and written
// only with retrainMu held; handlers that need live numbers without the
// lock read the atomics or the published snapshot's delta instead.
type liveState struct {
	cfg live.Config

	// archive/features are the corpus of the PUBLISHED MAIN model:
	// compaction rebuilds over their union with deltaRecs and then
	// absorbs the folded videos into them. Guarded by retrainMu.
	archive  *videomodel.Archive
	features map[videomodel.ShotID][]float64
	// journal mirrors the on-disk log at cfg.LogPath exactly; deltaRecs
	// is its suffix not yet folded by compaction (== the published
	// delta's Records). Guarded by retrainMu.
	journal   []live.Record
	deltaRecs []live.Record

	// journalLen shadows len(journal) for lock-free health/stats reads.
	journalLen atomic.Int64
	// compacting is the background-compaction single-flight flag.
	compacting atomic.Bool
	// bgDone is closed when the background compaction that set compacting
	// finishes: what Shutdown waits on. Guarded by bgMu; nil until the
	// first background compaction starts.
	bgMu   sync.Mutex
	bgDone chan struct{}
	// lastCompactMS is the wall clock of the last successful compaction.
	lastCompactMS atomic.Int64
}

// initLive wires live ingest into a freshly constructed server: corpus
// re-owning, journal recovery and replay, and the initial delta publish
// when the replay found uncompacted records. Called from New before the
// server is reachable, so no locking is needed.
func (s *Server) initLive(cfg *live.Config) error {
	if s.coordinator != nil {
		return errors.New("server: live ingest is not supported in coordinator mode " +
			"(the coordinator owns no model to extend; ingest on the shard servers)")
	}
	if cfg.Pipeline == nil {
		return errors.New("server: live ingest needs a segmentation pipeline")
	}
	if cfg.Archive == nil {
		return errors.New("server: live ingest needs the corpus archive the model was built from")
	}
	ls := &liveState{cfg: *cfg}
	// Re-own the corpus containers: compaction appends to them, and the
	// caller may keep using (or mutating) its own copies.
	videos := append([]*videomodel.Video(nil), cfg.Archive.Videos...)
	archive, err := videomodel.NewArchive(videos)
	if err != nil {
		return fmt.Errorf("server: live ingest corpus: %w", err)
	}
	ls.archive = archive
	ls.features = make(map[videomodel.ShotID][]float64, len(cfg.Features))
	for id, f := range cfg.Features {
		ls.features[id] = f
	}
	// The corpus must be exactly what the serving model was built from —
	// compaction equality (rebuild over the union == extend the model)
	// depends on it. Catch mismatched wiring at boot, not at the first
	// compaction.
	snap := s.current.Load()
	if got, want := len(ls.archive.Videos), snap.model.NumVideos(); got != want {
		return fmt.Errorf("server: live ingest corpus has %d videos but the model was built over %d "+
			"— pass the exact corpus the serving model was built from", got, want)
	}
	for i, vid := range snap.model.VideoIDs {
		if ls.archive.Videos[i].ID != vid {
			return fmt.Errorf("server: live ingest corpus video %d is %d but the model was built over %d "+
				"— pass the exact corpus the serving model was built from", i, ls.archive.Videos[i].ID, vid)
		}
	}
	s.live = ls

	if cfg.LogPath == "" {
		return nil
	}
	records, from, corrupt, err := live.LoadRecover(cfg.LogPath)
	if err != nil {
		return fmt.Errorf("server: ingest journal: %w", err)
	}
	s.metrics.ingestLogCorrupt.Add(uint64(corrupt))
	if from != "" && from != cfg.LogPath {
		s.metrics.ingestLogRecoveries.Inc()
		s.logf("server: WARNING: ingest journal %s corrupt or missing; recovered %d records from %s",
			cfg.LogPath, len(records), from)
	}
	// Reconcile each journaled video against the serving model. A video
	// the model already holds was compacted before a crash that lost the
	// journal truncation (the corpus snapshot is persisted strictly
	// before the truncation): skip it, folding it into the live corpus
	// if the configured corpus predates the compaction. Everything else
	// replays into the delta.
	for _, rec := range records {
		if modelHasVideo(snap.model, rec.Video) {
			if ls.archive.Video(rec.Video) == nil {
				v, f := rec.VideoAndFeatures()
				if err := ls.archive.AddVideo(v); err != nil {
					return fmt.Errorf("server: reconciling ingest journal: %w", err)
				}
				for id, fv := range f {
					ls.features[id] = fv
				}
			}
			s.metrics.ingestReplaySkipped.Inc()
			continue
		}
		ls.deltaRecs = append(ls.deltaRecs, rec)
		s.metrics.ingestReplayed.Inc()
	}
	ls.journal = records
	ls.journalLen.Store(int64(len(records)))
	if len(ls.deltaRecs) > 0 {
		d, err := live.NewDelta(ls.deltaRecs, snap.model.NumStates(), 1, ls.cfg.Build, s.opts)
		if err != nil {
			return fmt.Errorf("server: replaying ingest journal: %w", err)
		}
		s.current.Store(snap.withDelta(d))
		s.logf("server: ingest journal replayed %d videos into the delta sub-model", len(ls.deltaRecs))
	}
	return nil
}

// modelHasVideo reports whether the model covers the given video ID.
func modelHasVideo(m *hmmm.Model, id videomodel.VideoID) bool {
	for _, vid := range m.VideoIDs {
		if vid == id {
			return true
		}
	}
	return false
}

// handleIngest accepts one video into the live delta: POST /api/ingest.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.live == nil {
		if s.coordinator != nil {
			writeError(w, http.StatusNotImplemented, errors.New(
				"live ingest is not available in coordinator mode; ingest on the shard servers"))
			return
		}
		writeError(w, http.StatusNotImplemented, errors.New(
			"live ingest is not enabled (start hmmmd with -ingest)"))
		return
	}
	var req api.IngestRequest
	if !decodeJSON(w, r.Body, &req) {
		return
	}
	resp, status, err := s.ingestVideo(&req)
	if err != nil {
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// ingestVideo runs the accept path: validate, synthesize + segment +
// annotate off-lock, then journal durably and publish the new delta
// under retrainMu. The error status is the HTTP code handleIngest
// responds with. Acknowledgment implies durability: a response only
// goes out after the journal append is fsynced (when a log path is
// configured), so an acked video survives any crash.
func (s *Server) ingestVideo(req *api.IngestRequest) (*api.IngestResponse, int, error) {
	start := time.Now()
	if req.Name == "" {
		return nil, http.StatusBadRequest, errors.New("ingest: name required")
	}
	if len(req.Events) == 0 || len(req.Events) > maxIngestShots {
		return nil, http.StatusBadRequest,
			fmt.Errorf("ingest: need 1..%d shot classes, got %d", maxIngestShots, len(req.Events))
	}
	classes := make([]videomodel.Event, len(req.Events))
	for i, name := range req.Events {
		ev, err := videomodel.ParseEvent(name)
		if err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("ingest: shot %d: %w", i, err)
		}
		classes[i] = ev
	}
	shotMS := req.ShotMS
	if shotMS == 0 {
		shotMS = defaultIngestShotMS
	}
	if shotMS < minIngestShotMS || shotMS > maxIngestShotMS {
		return nil, http.StatusBadRequest,
			fmt.Errorf("ingest: shot_ms %d outside [%d, %d]", shotMS, minIngestShotMS, maxIngestShotMS)
	}

	// The heavy work — rendering, boundary detection, feature
	// extraction, classification — touches no shared state, so it runs
	// outside retrainMu with provisional IDs; real IDs are allocated
	// under the lock where the corpus and journal maxima are stable.
	ls := s.live
	raw := ingest.SynthesizeRaw(req.Seed, req.Name, classes, shotMS)
	res, err := ls.cfg.Pipeline.Segment(raw, 0, 0)
	if err != nil {
		s.metrics.ingestRejected.Inc()
		return nil, http.StatusBadRequest, err
	}
	if len(res.Features) == 0 {
		s.metrics.ingestRejected.Inc()
		return nil, http.StatusUnprocessableEntity,
			fmt.Errorf("ingest: classifier annotated no shots of %q (min confidence %.2f); "+
				"an HMMM cannot model a state-less video", req.Name, ls.cfg.Pipeline.MinConfidence)
	}

	s.retrainMu.Lock()
	resp, status, err := s.acceptLocked(res, start)
	s.retrainMu.Unlock()
	if err != nil {
		return nil, status, err
	}
	// Compaction triggers are evaluated at accept time; the fold itself
	// runs in the background, off both the query and the ingest path.
	s.maybeCompactAsync()
	return resp, http.StatusOK, nil
}

// acceptLocked commits one segmented video with retrainMu held:
// allocate IDs, build the candidate delta, append to the journal
// durably, and only then publish and acknowledge. Order matters — the
// delta build comes first (a video the delta model rejects must not
// reach the journal), the journal append second (a video that cannot be
// made durable must not be served or acked), the publish last.
func (s *Server) acceptLocked(res *ingest.Result, start time.Time) (*api.IngestResponse, int, error) {
	ls := s.live
	snap := s.current.Load()
	maxVideo, maxShot := ls.maxIDsLocked()
	relabel(res, maxVideo+1, maxShot+1)
	rec := live.NewRecord(res, time.Now().UnixMilli())

	newRecs := append(append([]live.Record(nil), ls.deltaRecs...), rec)
	d, err := live.NewDelta(newRecs, snap.model.NumStates(), snap.delta.Generation()+1, ls.cfg.Build, s.opts)
	if err != nil {
		s.metrics.ingestRejected.Inc()
		return nil, http.StatusUnprocessableEntity, fmt.Errorf("ingest: building delta model: %w", err)
	}
	newJournal := append(append([]live.Record(nil), ls.journal...), rec)
	if ls.cfg.LogPath != "" {
		if err := live.Persist(s.fs, ls.cfg.LogPath, newJournal); err != nil {
			s.metrics.ingestPersistFailures.Inc()
			return nil, http.StatusInternalServerError, fmt.Errorf("ingest: persisting journal: %w", err)
		}
	}
	ls.journal = newJournal
	ls.journalLen.Store(int64(len(newJournal)))
	ls.deltaRecs = newRecs
	s.current.Store(snap.withDelta(d))
	s.metrics.ingestAccepted.Inc()
	s.metrics.ingestSeconds.ObserveDuration(time.Since(start))
	return &api.IngestResponse{
		VideoID:         int(rec.Video),
		Shots:           len(res.Video.Shots),
		AutoAnnotated:   res.AutoAnnotated,
		FreshVideos:     d.Len(),
		DeltaGeneration: d.Gen,
		ModelGeneration: snap.gen,
	}, http.StatusOK, nil
}

// maxIDsLocked returns the highest video and shot IDs the live corpus
// or the journal has ever seen (retrainMu held). The journal is
// included so IDs of videos compacted-but-not-truncated, or journaled
// by a crashed predecessor, are never reissued.
func (ls *liveState) maxIDsLocked() (videomodel.VideoID, videomodel.ShotID) {
	maxVideo := videomodel.VideoID(0)
	maxShot := videomodel.ShotID(0)
	for _, v := range ls.archive.Videos {
		if v.ID > maxVideo {
			maxVideo = v.ID
		}
		for _, sh := range v.Shots {
			if sh.ID > maxShot {
				maxShot = sh.ID
			}
		}
	}
	for _, r := range ls.journal {
		if r.Video > maxVideo {
			maxVideo = r.Video
		}
		for _, sh := range r.Shots {
			if sh.ID > maxShot {
				maxShot = sh.ID
			}
		}
	}
	return maxVideo, maxShot
}

// relabel rewrites a segmentation result's provisional IDs to their
// allocated globals, rekeying the feature map to the new shot IDs.
func relabel(res *ingest.Result, vid videomodel.VideoID, firstShot videomodel.ShotID) {
	res.Video.ID = vid
	feats := make(map[videomodel.ShotID][]float64, len(res.Features))
	for i, sh := range res.Video.Shots {
		old := sh.ID
		sh.ID = firstShot + videomodel.ShotID(i)
		sh.Video = vid
		if f, ok := res.Features[old]; ok {
			feats[sh.ID] = f
		}
	}
	res.Features = feats
}

// maybeCompactAsync starts a background compaction when a trigger
// (delta size or age) fires and none is already running. The goroutine
// re-checks under retrainMu — an earlier trigger may have emptied the
// delta while this one queued.
func (s *Server) maybeCompactAsync() {
	ls := s.live
	if ls == nil || !s.compactDue() {
		return
	}
	if !ls.compacting.CompareAndSwap(false, true) {
		return
	}
	done := make(chan struct{})
	ls.bgMu.Lock()
	ls.bgDone = done
	ls.bgMu.Unlock()
	go func() {
		defer close(done)
		defer ls.compacting.Store(false)
		s.retrainMu.Lock()
		defer s.retrainMu.Unlock()
		if !s.compactDue() {
			return
		}
		if err := s.compactLocked(); err != nil {
			s.logf("server: background compaction failed (delta keeps serving): %v", err)
		}
	}()
}

// waitCompaction blocks until the background compaction in flight when
// it is called — queued on retrainMu or already folding — has finished,
// or ctx expires. Shutdown calls it after the HTTP drain, when no accept
// can start another one.
func (s *Server) waitCompaction(ctx context.Context) error {
	if s.live == nil {
		return nil
	}
	s.live.bgMu.Lock()
	done := s.live.bgDone
	s.live.bgMu.Unlock()
	if done == nil {
		return nil
	}
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("background compaction still running: %w", ctx.Err())
	}
}

// compactDue evaluates the size trigger against the published delta.
// Reads only the snapshot and config, so it is safe without retrainMu.
func (s *Server) compactDue() bool {
	after := s.live.cfg.CompactAfter
	return after > 0 && s.current.Load().delta.Len() >= after
}

// compactLocked folds the delta into the main model with retrainMu
// held: rebuild over the union corpus exactly as an offline hmmm.Build
// would (the differential suite pins bit-identity), re-apply the
// accumulated feedback, persist the merged corpus, publish, and only
// then truncate the journal.
//
// Durability order is the crash-safety invariant: the merged corpus
// snapshot reaches disk strictly before the journal — until then the
// only durable copy of the delta videos — may be truncated. A crash
// between the two leaves both; boot replay sees the videos already in
// the snapshot-built model and skips them. Without a snapshot path the
// journal is never truncated, so every accepted video survives restart
// by replay. Any failure leaves the old snapshot serving and the delta
// intact — compaction is all-or-nothing from the caller's view.
func (s *Server) compactLocked() error {
	ls := s.live
	recs := ls.deltaRecs
	if len(recs) == 0 {
		return nil
	}
	start := time.Now()
	snap := s.current.Load()
	fail := func(stage string, err error) error {
		s.metrics.compactFailures.Inc()
		return fmt.Errorf("compact: %s: %w", stage, err)
	}
	union, feats, err := live.Union(ls.archive, ls.features, recs)
	if err != nil {
		return fail("union corpus", err)
	}
	model, err := hmmm.Build(union, feats, ls.cfg.Build)
	if err != nil {
		return fail("rebuilding model", err)
	}
	// Re-apply the accumulated feedback so the rebuild keeps the learned
	// preferences. The union appends delta videos after the base corpus,
	// so base state and video indices — the coordinates feedback
	// patterns are recorded in — are unchanged.
	if s.log.Len() > 0 {
		if model, err = s.trainer.Retrain(model, s.log); err != nil {
			return fail("re-applying feedback", err)
		}
	}
	if ls.cfg.SnapshotPath != "" {
		c := &dataset.Corpus{Archive: union, Features: feats}
		if err := store.SaveCorpusFS(s.fs, ls.cfg.SnapshotPath, c); err != nil {
			return fail("persisting merged corpus", err)
		}
	}
	fresh, err := s.newSnapshot(model, snap.gen+1)
	if err != nil {
		return fail("rebuilding serving snapshot", err)
	}
	// fresh.delta stays nil: the delta videos now serve from the main
	// model; fresh_videos drops to zero and state indices settle into
	// the main range.
	s.current.Store(fresh)
	ls.archive, ls.features = union, feats
	ls.deltaRecs = nil
	switch {
	case ls.cfg.LogPath != "" && ls.cfg.SnapshotPath != "":
		if err := live.Persist(s.fs, ls.cfg.LogPath, nil); err != nil {
			// Not fatal: the published model and corpus snapshot are
			// consistent; boot replay reconciles (and skips) the stale
			// records, and the next accept rewrites the file.
			s.metrics.ingestPersistFailures.Inc()
			s.logf("server: WARNING: compaction could not truncate ingest journal %s: %v",
				ls.cfg.LogPath, err)
		} else {
			ls.journal = nil
			ls.journalLen.Store(0)
		}
	case ls.cfg.LogPath == "":
		ls.journal = nil
		ls.journalLen.Store(0)
	}
	ls.lastCompactMS.Store(time.Now().UnixMilli())
	s.metrics.compactions.Inc()
	s.metrics.compactSeconds.ObserveDuration(time.Since(start))
	return nil
}

// ingestHealth builds the /api/health live-ingest section; nil when
// live ingest is off.
func (s *Server) ingestHealth(snap *snapshot) *api.IngestHealthJSON {
	ls := s.live
	if ls == nil {
		return nil
	}
	return &api.IngestHealthJSON{
		FreshVideos:    snap.delta.Len(),
		JournalRecords: int(ls.journalLen.Load()),
		Compacting:     ls.compacting.Load(),
	}
}

// ingestStats builds the /api/stats live-ingest section; nil when live
// ingest is off.
func (s *Server) ingestStats(snap *snapshot) *api.IngestStatsJSON {
	ls := s.live
	if ls == nil {
		return nil
	}
	m := s.metrics
	return &api.IngestStatsJSON{
		Accepted:          m.ingestAccepted.Value(),
		Rejected:          m.ingestRejected.Value(),
		PersistFailures:   m.ingestPersistFailures.Value(),
		Replayed:          m.ingestReplayed.Value(),
		ReplaySkipped:     m.ingestReplaySkipped.Value(),
		FreshVideos:       snap.delta.Len(),
		JournalRecords:    int(ls.journalLen.Load()),
		DeltaGeneration:   snap.delta.Generation(),
		Compactions:       m.compactions.Value(),
		CompactFailures:   m.compactFailures.Value(),
		LastCompactUnixMS: ls.lastCompactMS.Load(),
		CompactAfter:      ls.cfg.CompactAfter,
	}
}
