// Package live implements runtime ingest: the crash-safe ingest log, the
// delta sub-model served alongside the main model, and the helpers the
// server's background compactor uses to fold the delta into a full
// rebuild (DESIGN.md §5i).
//
// The paper frames the HMMM as the model layer of an MMDBMS whose
// archive accumulates over time. This package supplies the accumulation
// axis for the *serving* system: a video accepted at runtime is recorded
// durably before it is acknowledged, becomes queryable through a Partial
// delta model within one snapshot swap — the server's retrieval.Gather
// merges the delta's ranking with the main model's, its state ids lifted
// by Delta.Offset — and is eventually merged into the main model by an
// offline-equivalent rebuild.
package live

import (
	"errors"
	"fmt"
	"io"
	"os"

	"github.com/videodb/hmmm/internal/atomicwrite"
	"github.com/videodb/hmmm/internal/ingest"
	"github.com/videodb/hmmm/internal/videomodel"
)

// The journal persists as one atomicwrite record holding the record
// list. It is logically append-only (records are only ever appended,
// or the whole list truncated after a durable compaction); physically
// every change replaces the whole checksummed record through
// atomicwrite.Write, so a torn write is detectable and the path → .tmp
// → .bak recovery chain always holds the last acknowledged state.
const (
	journalMagic   = "HMMMILOG"
	journalVersion = 1
)

// ShotRecord is the persisted form of one segmented shot: everything the
// model layer needs (timing, annotations, Table-1 features), with the
// raw media already dropped by the ingest pipeline.
type ShotRecord struct {
	ID       videomodel.ShotID
	Index    int
	StartMS  int
	EndMS    int
	Events   []videomodel.Event
	Features []float64 // nil when the shot is unannotated
}

// Record is one accepted video: the unit of the ingest journal. A video
// is acknowledged to the client only after its Record is durably in the
// journal, so replaying the journal after a crash reconstructs every
// acked video exactly.
type Record struct {
	Video          videomodel.VideoID
	Name           string
	AcceptedUnixMS int64
	Shots          []ShotRecord
}

// NewRecord converts an ingest pipeline result into its journal form.
func NewRecord(res *ingest.Result, acceptedUnixMS int64) Record {
	rec := Record{Video: res.Video.ID, Name: res.Video.Name, AcceptedUnixMS: acceptedUnixMS}
	for _, s := range res.Video.Shots {
		rec.Shots = append(rec.Shots, ShotRecord{
			ID:      s.ID,
			Index:   s.Index,
			StartMS: s.StartMS,
			EndMS:   s.EndMS,
			Events:  s.Events,
			// Features are keyed by shot ID in the result; unannotated
			// shots have no entry and persist as nil.
			Features: res.Features[s.ID],
		})
	}
	return rec
}

// VideoAndFeatures reconstructs the archive entry and feature map of a
// journaled video: the inverse of NewRecord.
func (r Record) VideoAndFeatures() (*videomodel.Video, map[videomodel.ShotID][]float64) {
	v := &videomodel.Video{ID: r.Video, Name: r.Name}
	feats := make(map[videomodel.ShotID][]float64)
	for _, s := range r.Shots {
		v.Shots = append(v.Shots, &videomodel.Shot{
			ID:      s.ID,
			Video:   r.Video,
			Index:   s.Index,
			StartMS: s.StartMS,
			EndMS:   s.EndMS,
			Events:  s.Events,
		})
		if s.Features != nil {
			feats[s.ID] = s.Features
		}
	}
	return v, feats
}

// Persist durably replaces the journal at path with the record list
// through the atomicwrite protocol (tmp + fsync → .bak → rename → dir
// fsync). A nil fs uses the real filesystem.
func Persist(fs atomicwrite.FS, path string, records []Record) error {
	return atomicwrite.Write(fs, path, func(w io.Writer) error {
		return atomicwrite.EncodeRecord(w, journalMagic, journalVersion, "", records)
	})
}

// load reads one journal file. Integrity failures wrap ErrCorrupt, so
// LoadRecover falls back along the chain instead of replaying garbage.
func load(path string) ([]Record, error) {
	var records []Record
	if err := atomicwrite.ReadPayload(path, journalMagic, journalVersion, &records); err != nil {
		return nil, fmt.Errorf("live: ingest log: %w", err)
	}
	return records, nil
}

// LoadRecover loads the journal at path through atomicwrite.Recover,
// returning the records, the path they came from and the number of
// corrupt candidates. No candidate at all is a fresh journal (nil, "",
// 0, nil). Every candidate corrupt is an error wrapping ErrCorrupt: an
// ingest log that acknowledged videos must not be silently discarded.
func LoadRecover(path string) (records []Record, from string, corrupt int, err error) {
	from, corrupt, err = atomicwrite.Recover(path, func(p string) (err error) {
		records, err = load(p)
		return err
	})
	switch {
	case err == nil:
		return records, from, corrupt, nil
	case errors.Is(err, os.ErrNotExist):
		return nil, "", 0, nil
	case errors.Is(err, atomicwrite.ErrCorrupt):
		return nil, "", corrupt, fmt.Errorf("live: ingest log %w (move the file aside to start fresh)", err)
	default:
		return nil, "", corrupt, fmt.Errorf("live: reading ingest log: %w", err)
	}
}
