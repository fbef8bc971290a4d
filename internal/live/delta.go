package live

import (
	"fmt"

	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/ingest"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/videomodel"
)

// Config enables live ingest on a server. The zero value disables it.
type Config struct {
	// LogPath persists the ingest journal across restarts. Empty keeps the
	// journal in memory only: accepted videos are still queryable but do
	// not survive a restart (useful for benchmarks).
	LogPath string

	// Archive and Features are the corpus the serving model was built
	// from. Compaction rebuilds the model over their union with the
	// journal, so live ingest requires the corpus, not just the model.
	Archive  *videomodel.Archive
	Features map[videomodel.ShotID][]float64

	// Pipeline segments and annotates incoming raw videos.
	Pipeline *ingest.Pipeline

	// Build configures delta and compaction model builds. It should match
	// the options the serving model was built with so the compacted model
	// is bit-identical to an offline build of the union archive.
	Build hmmm.BuildOptions

	// CompactAfter triggers background compaction once the delta holds at
	// least this many videos (0 disables the size trigger).
	CompactAfter int

	// SnapshotPath, when set, durably persists the compacted model before
	// the journal is truncated; on restart a snapshot at this path serves
	// as the base model and the journal replay skips videos it already
	// contains. Without it the journal is never truncated — every accepted
	// video replays into the delta on restart.
	SnapshotPath string
}

// Delta is the served delta sub-model: the accepted-but-not-yet-compacted
// videos built into a standalone Partial model and engine. A Delta is
// immutable once published; every accepted video produces a new one.
type Delta struct {
	// Records are the journal records the delta covers, in accept order.
	Records []Record
	// Model is a Partial HMMM over exactly the delta videos.
	Model *hmmm.Model
	// Engine retrieves over Model. Delta models are small and short-lived,
	// so the engine skips the precomputed sim cache.
	Engine *retrieval.Engine
	// Offset is the main model's state count at publish time: the
	// server's gather lifts delta states by it, past the main model's
	// [0, Offset) — the delta is one more shard of the gather.
	Offset int
	// Gen increments on every delta publish; together with the model
	// generation it keys request coalescing.
	Gen uint64
}

// NewDelta builds the delta sub-model over the record set. The model is
// built exactly like an offline hmmm.Build over a delta-only archive and
// marked Partial: it is a by-video restriction of the conceptual union
// model, so its priors are normalized over the delta videos only.
func NewDelta(records []Record, offset int, gen uint64, build hmmm.BuildOptions, eopts retrieval.Options) (*Delta, error) {
	if len(records) == 0 {
		return nil, fmt.Errorf("live: delta over zero records")
	}
	videos := make([]*videomodel.Video, 0, len(records))
	feats := make(map[videomodel.ShotID][]float64)
	for _, r := range records {
		v, f := r.VideoAndFeatures()
		videos = append(videos, v)
		for id, fv := range f {
			feats[id] = fv
		}
	}
	archive, err := videomodel.NewArchive(videos)
	if err != nil {
		return nil, fmt.Errorf("live: delta archive: %w", err)
	}
	m, err := hmmm.Build(archive, feats, build)
	if err != nil {
		return nil, fmt.Errorf("live: delta model: %w", err)
	}
	m.Partial = true
	eopts.NoSimCache = true
	engine, err := retrieval.NewEngine(m, eopts)
	if err != nil {
		return nil, fmt.Errorf("live: delta engine: %w", err)
	}
	return &Delta{Records: records, Model: m, Engine: engine, Offset: offset, Gen: gen}, nil
}

// Len returns the number of delta videos; safe on a nil Delta.
func (d *Delta) Len() int {
	if d == nil {
		return 0
	}
	return len(d.Records)
}

// Generation returns the delta generation; 0 on a nil Delta.
func (d *Delta) Generation() uint64 {
	if d == nil {
		return 0
	}
	return d.Gen
}

// Union returns a new archive and feature map covering the base corpus
// plus the journaled videos: the compaction build input. The base
// archive is not mutated; the returned feature map is a fresh copy.
func Union(base *videomodel.Archive, baseFeats map[videomodel.ShotID][]float64, records []Record) (*videomodel.Archive, map[videomodel.ShotID][]float64, error) {
	videos := make([]*videomodel.Video, 0, len(base.Videos)+len(records))
	videos = append(videos, base.Videos...)
	feats := make(map[videomodel.ShotID][]float64, len(baseFeats))
	for id, f := range baseFeats {
		feats[id] = f
	}
	for _, r := range records {
		v, f := r.VideoAndFeatures()
		videos = append(videos, v)
		for id, fv := range f {
			feats[id] = fv
		}
	}
	archive, err := videomodel.NewArchive(videos)
	if err != nil {
		return nil, nil, fmt.Errorf("live: union archive: %w", err)
	}
	return archive, feats, nil
}
