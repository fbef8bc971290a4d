// Package store persists corpora and HMMM models to disk: versioned gob
// snapshots for fast reload, plus a JSON model export for inspection and
// interchange.
//
// A paper-scale corpus regenerates in a couple of seconds, but the trained
// model embodies accumulated user feedback that must survive restarts —
// the paper's training "computations should be done offline", and this is
// where their results live.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sync/atomic"

	"github.com/videodb/hmmm/internal/atomicwrite"
	"github.com/videodb/hmmm/internal/dataset"
	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/matrix"
	"github.com/videodb/hmmm/internal/mmm"
	"github.com/videodb/hmmm/internal/obs"
	rec "github.com/videodb/hmmm/internal/store/internal/hmmm"
	"github.com/videodb/hmmm/internal/videomodel"
)

// Metrics counts snapshot recovery events so a boot that silently fell
// back along the recovery chain is visible on /metrics. Model and
// corpus snapshots count alike.
type Metrics struct {
	Loads             *obs.Counter // successful snapshot loads
	Recoveries        *obs.Counter // loads served by a non-primary candidate
	CorruptCandidates *obs.Counter // candidates skipped as corrupt
}

// NewMetrics registers the store metric catalog on the registry.
// Registration is idempotent, so the server and the daemon may both
// call it on a shared registry and get the same counters.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Loads: reg.Counter("hmmm_store_model_loads_total",
			"Model and corpus snapshots loaded successfully through the recovery chain."),
		Recoveries: reg.Counter("hmmm_store_model_recoveries_total",
			"Snapshot loads served by a recovery candidate (.tmp/.bak) instead of the primary file."),
		CorruptCandidates: reg.Counter("hmmm_store_corrupt_snapshots_total",
			"Snapshot candidates skipped during recovery as torn or corrupt."),
	}
}

// metrics is the package's installed instrumentation; nil until
// SetMetrics. Package-level because loading happens before any server
// exists (hmmmd loads the boot model first).
var metrics atomic.Pointer[Metrics]

// SetMetrics installs the counters LoadModelRecover and
// LoadCorpusRecover report into.
func SetMetrics(m *Metrics) { metrics.Store(m) }

// Magic and Version identify the snapshot format: an atomicwrite
// record whose kind is "model", "cmodel" or "corpus". Version 2 added
// the payload checksum.
const (
	Magic   = "HMMMDB"
	Version = 2
)

// corpusPayload is the persistent form of a dataset.Corpus. Media is never
// persisted; features and annotations are.
type corpusPayload struct {
	Videos   []*videomodel.Video
	Features map[videomodel.ShotID][]float64
	Config   dataset.Config
}

// SaveCorpus writes the corpus to path atomically (write to temp file,
// then rename) with a payload checksum.
func SaveCorpus(path string, c *dataset.Corpus) error {
	return SaveCorpusFS(nil, path, c)
}

// SaveCorpusFS is SaveCorpus writing through an injectable filesystem
// (nil = the real one): the server's live-ingest compactor persists the
// merged corpus through it so the fault-injection suites can crash the
// write at every step and prove the journal is only truncated after a
// durable snapshot exists.
func SaveCorpusFS(fs atomicwrite.FS, path string, c *dataset.Corpus) error {
	return saveSnapshot(fs, path, "corpus", corpusPayload{c.Archive.Videos, c.Features, c.Config})
}

// saveSnapshot writes payload as a checksummed record of the given kind
// through atomicwrite.Write (nil fs = the real filesystem).
func saveSnapshot(fs atomicwrite.FS, path, kind string, payload any) error {
	return atomicwrite.Write(fs, path, func(w io.Writer) error {
		return atomicwrite.EncodeRecord(w, Magic, Version, kind, payload)
	})
}

// badPayload marks a snapshot that verified but does not decode into a
// valid value as atomicwrite.ErrCorrupt, so the recovery walk skips it.
func badPayload(path, kind string, err error) error {
	if !errors.Is(err, atomicwrite.ErrCorrupt) {
		err = fmt.Errorf("%w: %w", atomicwrite.ErrCorrupt, err)
	}
	return fmt.Errorf("store: %s: %s snapshot: %w", path, kind, err)
}

// LoadCorpus reads a corpus written by SaveCorpus, verifying integrity.
func LoadCorpus(path string) (*dataset.Corpus, error) {
	kind, payload, err := atomicwrite.ReadRecord(path, Magic, Version)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if kind != "corpus" {
		return nil, badPayload(path, kind, errors.New("want a corpus"))
	}
	var p corpusPayload
	if err := atomicwrite.DecodePayload(payload, &p); err != nil {
		return nil, badPayload(path, kind, err)
	}
	archive, err := videomodel.NewArchive(p.Videos)
	if err != nil {
		return nil, badPayload(path, kind, err)
	}
	return &dataset.Corpus{Archive: archive, Features: p.Features, Config: p.Config}, nil
}

// SaveModel writes the model to path atomically with a payload checksum,
// in the full-precision float64 snapshot layout.
func SaveModel(path string, m *hmmm.Model) error {
	return saveSnapshot(nil, path, "model", modelRecord(m.Snapshot()))
}

// modelRecord is the value a "model" record gob-encodes: the snapshot
// with its states as rec.State, Π1 as its N values, and each A1 block
// and A2 widened to the square matrix.Dense the format has always
// carried. Gob names every type in the stream and numbers types per
// process, so encoding the snapshot's own states, []*mmm.A1, *mmm.A2 or
// *mmm.Pi would change the record; this struct, named Snapshot with the
// fields a record has always had, in the same order, keeps a record
// byte-identical to one written before the model held them compactly
// (TestRecordBytesFrozen pins it). LoadModel decodes a record into
// modelPayload.
func modelRecord(s *hmmm.Snapshot) any {
	type Snapshot struct {
		States    []rec.State
		B1        *matrix.Dense
		Pi1       []float64
		LocalA    []*matrix.Dense
		VideoIDs  []videomodel.VideoID
		A2        *matrix.Dense
		B2        *matrix.Dense
		Pi2       []float64
		P12       *matrix.Dense
		B1Prime   *matrix.Dense
		ScalerMin []float64
		ScalerMax []float64
		Partial   bool
		Domain    string
	}
	r := &Snapshot{
		States: make([]rec.State, len(s.States)), B1: s.B1, Pi1: s.Pi1.Values(), LocalA: make([]*matrix.Dense, len(s.LocalA)),
		VideoIDs: s.VideoIDs, A2: s.A2.Dense(), B2: s.B2, Pi2: s.Pi2, P12: s.P12, B1Prime: s.B1Prime,
		ScalerMin: s.ScalerMin, ScalerMax: s.ScalerMax, Partial: s.Partial, Domain: s.Domain,
	}
	vi := 0
	for i, st := range s.States {
		for vi+1 < len(s.Offsets) && s.Offsets[vi+1] <= i {
			vi++
		}
		r.States[i] = rec.State{Shot: st.Shot, VideoIdx: vi, LocalIdx: i - s.Offsets[vi], Events: st.Events, StartMS: int(s.StartMS[i])}
	}
	for vi, a := range s.LocalA {
		d := matrix.NewDense(a.Rows(), a.Rows())
		for i := 0; i < a.Rows(); i++ {
			a.Row(i, d.Row(i)[i:])
		}
		r.LocalA[vi] = d
	}
	return r
}

// modelPayload is what LoadModel decodes a "model" record into. gob
// matches fields by name, so the square A1 and A2 payloads land in the
// mmm types that read them.
type modelPayload struct {
	States    []rec.State
	B1        *matrix.Dense
	Pi1       []float64
	LocalA    []*mmm.A1
	VideoIDs  []videomodel.VideoID
	A2        *mmm.A2
	B2        *matrix.Dense
	Pi2       []float64
	P12       *matrix.Dense
	B1Prime   *matrix.Dense
	ScalerMin []float64
	ScalerMax []float64
	Partial   bool
	Domain    string
}

// snapshot converts the payload to the model's snapshot. It refuses
// states not grouped by video in video order, a local index other than
// the state's place in its video, and a start time outside [0, 2³¹).
// Every state's events are carved from one array.
func (p *modelPayload) snapshot() (*hmmm.Snapshot, error) {
	n, videos := len(p.States), len(p.VideoIDs)
	s := &hmmm.Snapshot{
		States: make([]hmmm.State, n), StartMS: make([]int32, n), Offsets: make([]int, videos),
		B1: p.B1, Pi1: mmm.NewPi(p.Pi1), LocalA: p.LocalA, VideoIDs: p.VideoIDs, A2: p.A2, B2: p.B2,
		Pi2: p.Pi2, P12: p.P12, B1Prime: p.B1Prime, ScalerMin: p.ScalerMin, ScalerMax: p.ScalerMax,
		Partial: p.Partial, Domain: p.Domain,
	}
	total := 0
	for i := range p.States {
		total += len(p.States[i].Events)
	}
	events := make([]videomodel.Event, 0, total)
	cur := 0 // the video of the last state seen
	for i, r := range p.States {
		if r.VideoIdx < cur || r.VideoIdx >= videos {
			return nil, fmt.Errorf("state %d has video index %d after video %d of %d: states not grouped by video", i, r.VideoIdx, cur, videos)
		}
		for ; cur < r.VideoIdx; cur++ {
			s.Offsets[cur+1] = i
		}
		if r.LocalIdx != i-s.Offsets[cur] {
			return nil, fmt.Errorf("state %d has local index %d, want %d", i, r.LocalIdx, i-s.Offsets[cur])
		}
		if r.StartMS < 0 || r.StartMS > math.MaxInt32 {
			return nil, fmt.Errorf("state %d starts at %dms, outside [0, 2^31)", i, r.StartMS)
		}
		lo := len(events)
		events = append(events, r.Events...)
		s.States[i] = hmmm.State{Shot: r.Shot, Events: events[lo:len(events):len(events)]}
		s.StartMS[i] = int32(r.StartMS)
	}
	for cur++; cur < videos; cur++ {
		s.Offsets[cur] = n
	}
	return s, nil
}

// SaveModelCompact writes the model to path atomically in the compact
// layout (kind "cmodel"): float32 matrices, banded per-video A1 blocks,
// and struct-of-arrays state bookkeeping — roughly a third of the bytes
// of SaveModel at a 2^-24 relative quantization cost on B1/B1'/A1/A2
// (see hmmm.CompactSnapshot). LoadModel reads either kind.
func SaveModelCompact(path string, m *hmmm.Model) error {
	return saveSnapshot(nil, path, "cmodel", m.CompactSnapshot())
}

// LoadModel reads a model written by SaveModel or SaveModelCompact,
// sniffing the layout from the snapshot header, verifying integrity and
// validating the model's invariants.
func LoadModel(path string) (*hmmm.Model, error) {
	kind, payload, err := atomicwrite.ReadRecord(path, Magic, Version)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var m *hmmm.Model
	switch kind {
	case "model":
		var p modelPayload
		var s *hmmm.Snapshot
		if err = atomicwrite.DecodePayload(payload, &p); err == nil {
			s, err = p.snapshot()
		}
		if err == nil {
			m, err = hmmm.FromSnapshot(s)
		}
	case "cmodel":
		var cs hmmm.CompactSnapshot
		if err = atomicwrite.DecodePayload(payload, &cs); err == nil {
			m, err = hmmm.FromCompactSnapshot(&cs)
		}
	default:
		err = errors.New("want a model")
	}
	if err != nil {
		return nil, badPayload(path, kind, err)
	}
	return m, nil
}

// ErrDomainMismatch is the error for a snapshot whose domain stamp
// disagrees with the vocabulary the caller will serve it into. Serving a
// model into the wrong vocabulary would silently relabel every concept —
// basketball's concept 0 rendered with another domain's first event
// name — so the mismatch is an error, not a warning.
var ErrDomainMismatch = errors.New("store: model domain mismatch")

// LoadModelRecover loads a model snapshot through atomicwrite.Recover
// (path, then path.tmp, then path.bak) and returns the path it loaded,
// so callers can warn when that is not the one asked for. It fails when
// no candidate exists (os.IsNotExist holds), when every candidate is
// corrupt, and on the first real I/O error.
func LoadModelRecover(path string) (*hmmm.Model, string, error) {
	return recoverSnapshot(path, LoadModel)
}

// LoadCorpusRecover loads a corpus snapshot along the same recovery
// chain, with the same outcomes, as LoadModelRecover.
func LoadCorpusRecover(path string) (*dataset.Corpus, string, error) {
	return recoverSnapshot(path, LoadCorpus)
}

// recoverSnapshot runs the recovery walk and reports it to the metrics.
func recoverSnapshot[T any](path string, load func(string) (T, error)) (v T, from string, err error) {
	from, corrupt, err := atomicwrite.Recover(path, func(p string) (err error) {
		v, err = load(p)
		return err
	})
	if mm := metrics.Load(); mm != nil {
		mm.CorruptCandidates.Add(uint64(corrupt))
		if err == nil {
			mm.Loads.Inc()
			if from != path {
				mm.Recoveries.Inc()
			}
		}
	}
	return v, from, err
}

// modelJSON is the JSON export shape: a human-inspectable summary plus the
// full cross-level matrices (the per-video A1 blocks are included; B1 can
// be large and is summarized by its bounds).
type modelJSON struct {
	NumStates   int                    `json:"num_states"`
	NumVideos   int                    `json:"num_videos"`
	NumConcepts int                    `json:"num_concepts"`
	K           int                    `json:"num_features"`
	Domain      string                 `json:"domain"`
	Events      []string               `json:"events"`
	Pi1         []float64              `json:"pi1"`
	Pi2         []float64              `json:"pi2"`
	A2          [][]float64            `json:"a2"`
	B2          [][]float64            `json:"b2"`
	P12         [][]float64            `json:"p12"`
	B1Prime     [][]float64            `json:"b1_prime"`
	LocalA      map[string][][]float64 `json:"local_a1"`
}

// ExportModelJSON writes a JSON rendering of the model. Event names
// render in the model's own domain vocabulary.
func ExportModelJSON(w io.Writer, m *hmmm.Model) error {
	domain, ok := videomodel.DomainByName(m.Domain)
	if !ok {
		return fmt.Errorf("store: model stamped with unknown domain %q", m.Domain)
	}
	names := make([]string, m.NumConcepts())
	for i := range names {
		names[i] = domain.EventName(videomodel.EventFromIndex(i))
	}
	out := modelJSON{
		NumStates:   m.NumStates(),
		NumVideos:   m.NumVideos(),
		NumConcepts: m.NumConcepts(),
		K:           m.K(),
		Domain:      domain.Name,
		Events:      names,
		Pi1:         m.Pi1.Values(),
		Pi2:         m.Pi2,
		A2:          rows(m.A2.Dense()),
		B2:          rows(m.B2),
		P12:         rows(m.P12),
		B1Prime:     rows(m.B1Prime),
		LocalA:      map[string][][]float64{},
	}
	for vi, a := range m.LocalA {
		out.LocalA[fmt.Sprintf("video_%d", m.VideoIDs[vi])] = fullRows(a)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func rows(d *matrix.Dense) [][]float64 {
	out := make([][]float64, d.Rows())
	for i := range out {
		out[i] = append([]float64(nil), d.Row(i)...)
	}
	return out
}

// fullRows renders an A1 block as n-wide rows, zeros left of the
// diagonal included, so the export keeps the square matrix shape.
func fullRows(a *mmm.A1) [][]float64 {
	n := a.Rows()
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		a.Row(i, out[i][i:])
	}
	return out
}
