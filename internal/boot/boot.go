// Package boot turns the serving commands' flags into what they serve:
// the archive's model (resumed from a compacted ingest snapshot, loaded
// from a snapshot, or generated), the live-ingest configuration, the one
// shard a shard server owns, and the cross-domain federation. hmmmd,
// hmmm-shardd and hmmmload all boot through it, so every process of a
// fleet derives the same archive from the same flags.
package boot

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/videodb/hmmm/internal/dataset"
	"github.com/videodb/hmmm/internal/fed"
	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/ingest"
	"github.com/videodb/hmmm/internal/live"
	"github.com/videodb/hmmm/internal/mining"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/rpc"
	"github.com/videodb/hmmm/internal/shard"
	"github.com/videodb/hmmm/internal/shotdetect"
	"github.com/videodb/hmmm/internal/store"
	"github.com/videodb/hmmm/internal/synthvideo"
	"github.com/videodb/hmmm/internal/videomodel"
)

// Options returns the engine options every serving engine is built
// with: beam 4, top 10, and the -coarse-candidates budget.
func Options(coarse int) retrieval.Options {
	return retrieval.Options{Beam: 4, TopK: 10, CoarseCandidates: coarse}
}

// Archive is the flags that name the archive a process serves. Every
// process of a fleet takes the same values: the shard split is
// deterministic, so the same archive gives every process the same
// by-video partition.
type Archive struct {
	Model                    string // snapshot to load; empty generates the corpus
	Seed                     uint64
	Videos, Shots, Annotated int
	// Domain is the event vocabulary: the generated corpus samples its
	// timeline grammar, and a loaded Model must be stamped with it.
	// Empty means soccer, or the loaded model's own stamp.
	Domain string
}

// RegisterFlags registers the archive flags on fs.
func (a *Archive) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&a.Model, "model", "", "model snapshot to serve (empty = generate)")
	fs.Uint64Var(&a.Seed, "seed", 1, "seed for the generated corpus")
	fs.IntVar(&a.Videos, "videos", 54, "generated corpus videos")
	fs.IntVar(&a.Shots, "shots", 11567, "generated corpus shots")
	fs.IntVar(&a.Annotated, "annotated", 506, "generated corpus annotated shots")
	fs.StringVar(&a.Domain, "domain", "", "event vocabulary of the served archive: generate the corpus from it, or require a loaded -model to be stamped with it (empty = soccer / accept the model's own stamp)")
}

func (a Archive) domain() (*videomodel.Domain, error) {
	d, ok := videomodel.DomainByName(a.Domain)
	if !ok {
		return nil, fmt.Errorf("unknown domain %q (have %s)", a.Domain, strings.Join(videomodel.DomainNames(), ", "))
	}
	return d, nil
}

// Built is a booted archive.
type Built struct {
	Model *hmmm.Model
	// Corpus is the soccer corpus Model was built from, the one live
	// ingest extends; nil for a loaded snapshot or another domain.
	Corpus *dataset.Corpus
	// Origin says where Model came from, for the startup banner; it
	// carries a warning when a snapshot loaded from a recovery candidate.
	Origin string

	opts hmmm.BuildOptions
}

// Build boots the archive. A non-empty resume (hmmmd -ingest
// -ingest-snapshot) is tried first: a recovery chain without any file
// is a first boot, and one whose every candidate is corrupt is an
// error, never a fresh corpus. Otherwise Build loads a.Model, or else
// generates the corpus: soccer through internal/dataset, other domains
// from their timeline grammar through internal/synthvideo.
func (a Archive) Build(resume string) (*Built, error) {
	d, err := a.domain()
	if err != nil {
		return nil, err
	}
	var c *dataset.Corpus
	var from string
	if resume != "" {
		// A chain without any file (os.ErrNotExist) is a first boot.
		if c, from, err = store.LoadCorpusRecover(resume); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("loading ingest snapshot: %w", err)
		}
	}
	b := &Built{Corpus: c, opts: hmmm.BuildOptions{LearnP12: true, Domain: d}}
	start := time.Now()
	var archive *videomodel.Archive
	var feats map[videomodel.ShotID][]float64
	switch {
	case c != nil:
		b.Origin = "resumed compacted corpus from " + source(resume, from)
	case a.Model != "":
		return a.load(d)
	case d.Name != "soccer":
		if archive, feats, err = a.generate(d); err != nil {
			return nil, err
		}
		b.Origin = "generated " + d.Name + " corpus and model"
	default:
		b.Corpus, err = dataset.Build(dataset.Config{
			Seed: a.Seed, Videos: a.Videos, Shots: a.Shots, Annotated: a.Annotated, Fast: true,
		})
		if err != nil {
			return nil, fmt.Errorf("building corpus: %w", err)
		}
		b.Origin = "generated soccer corpus and model"
	}
	if b.Corpus != nil {
		archive, feats = b.Corpus.Archive, b.Corpus.Features
	}
	if b.Model, err = hmmm.Build(archive, feats, b.opts); err != nil {
		return nil, fmt.Errorf("building %s model: %w", d.Name, err)
	}
	b.Origin += fmt.Sprintf(" in %.1fs: %d states across %d videos",
		time.Since(start).Seconds(), b.Model.NumStates(), b.Model.NumVideos())
	return b, nil
}

// load loads a.Model, which must be stamped with d when a.Domain is set.
func (a Archive) load(d *videomodel.Domain) (*Built, error) {
	m, from, err := store.LoadModelRecover(a.Model)
	if err != nil {
		return nil, fmt.Errorf("loading model: %w", err)
	}
	if a.Domain != "" && m.DomainName() != d.Name {
		return nil, fmt.Errorf("model %s: %w: stamped %q, want %q", from, store.ErrDomainMismatch, m.DomainName(), d.Name)
	}
	return &Built{Model: m, Origin: fmt.Sprintf("loaded model from %s (%s domain): %d states across %d videos",
		source(a.Model, from), m.DomainName(), m.NumStates(), m.NumVideos())}, nil
}

// source names the file a snapshot at path loaded from, warning when it
// is a recovery candidate.
func source(path, from string) string {
	if from == path {
		return from
	}
	return fmt.Sprintf("%s (WARNING: %s unreadable)", from, path)
}

// generate samples a's corpus from d's timeline grammar and per-event
// feature statistics; only soccer has the media pipeline of dataset.
func (a Archive) generate(d *videomodel.Domain) (*videomodel.Archive, map[videomodel.ShotID][]float64, error) {
	archive, feats, err := synthvideo.GenerateArchive(synthvideo.ArchiveConfig{
		Seed: a.Seed, Videos: a.Videos, Shots: a.Shots, Annotated: a.Annotated, Domain: d,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("generating %s corpus: %w", d.Name, err)
	}
	return archive, feats, nil
}

// Live returns the live-ingest configuration over b: its corpus, its
// build options, and the ingest pipeline (a classifier trained with
// seed 1 on 12 samples per event, accepting labels at confidence 0.5).
// The caller sets the journal, snapshot and compaction fields.
func (b *Built) Live() (*live.Config, error) {
	if b.Corpus == nil {
		return nil, errors.New("live ingest needs the soccer corpus the model was built from: run in generated-corpus mode (no -model) or point -ingest-snapshot at a compacted corpus snapshot")
	}
	tree, err := ingest.TrainClassifier(1, 12, mining.Config{})
	if err != nil {
		return nil, fmt.Errorf("training ingest classifier: %w", err)
	}
	pipe, err := ingest.NewPipeline(shotdetect.DefaultConfig(), tree, 0.5)
	if err != nil {
		return nil, fmt.Errorf("building ingest pipeline: %w", err)
	}
	return &live.Config{Archive: b.Corpus.Archive, Features: b.Corpus.Features, Pipeline: pipe, Build: b.opts}, nil
}

// Federation builds the federation hmmmd -domains serves: for the i-th
// of the comma-separated domains, an archive of a's size generated from
// that domain's grammar with seed a.Seed+i, served by an engine with
// opts; the merged ranking keeps opts.TopK matches.
func Federation(domains string, a Archive, opts retrieval.Options) (*fed.Federation, error) {
	var members []fed.Member
	for i, name := range strings.Split(domains, ",") {
		a := a
		a.Seed, a.Domain = a.Seed+uint64(i), strings.TrimSpace(name)
		d, err := a.domain()
		if err != nil {
			return nil, err
		}
		archive, feats, err := a.generate(d)
		if err != nil {
			return nil, err
		}
		m, err := hmmm.Build(archive, feats, hmmm.BuildOptions{LearnP12: true, Domain: d})
		if err != nil {
			return nil, fmt.Errorf("building %s model: %w", d.Name, err)
		}
		engine, err := retrieval.NewEngine(m, opts)
		if err != nil {
			return nil, fmt.Errorf("building %s engine: %w", d.Name, err)
		}
		members = append(members, fed.Member{Name: d.Name, Domain: d, States: m.NumStates(), Retriever: engine})
	}
	return fed.New(members, fed.Options{TopK: opts.TopK})
}

// ShardService splits model into of by-video shards and serves shard
// idx, which Validate holds to [0, of), at generation gen. It refuses an
// archive that splits into fewer than of shards: a process serving
// another partition than its coordinator expects would merge the wrong
// matches.
func ShardService(model *hmmm.Model, idx, of int, opts retrieval.Options, gen uint64) (*rpc.ShardService, error) {
	shards, err := shard.Split(model, of)
	if err != nil {
		return nil, fmt.Errorf("splitting model: %w", err)
	}
	if len(shards) != of {
		return nil, fmt.Errorf("archive splits into %d shards, not the requested %d; lower -of on every process", len(shards), of)
	}
	return rpc.NewShardService(shards[idx], idx, of, opts, gen)
}

// Modes is the serving-mode flags whose combinations Validate checks:
// hmmmd's -coord and -ingest, and a shard server's (hmmm-shardd,
// ShardServer set) -shard and -of.
type Modes struct {
	Coord       string
	Ingest      bool
	ShardServer bool
	Shard, Of   int
}

// Validate reports the first flag combination no command serves, before
// anything is built. What only the built archive can tell — a loaded
// model's stamp, a corpus to ingest into, a split short of -of — Build,
// Live and ShardService refuse.
func (m Modes) Validate(a Archive) error {
	d, err := a.domain()
	switch {
	case err != nil:
		return err
	case m.Ingest && m.Coord != "":
		return errors.New("-ingest and -coord are mutually exclusive: the coordinator owns no model to extend; ingest on the shard servers")
	case m.Ingest && d.Name != "soccer":
		return fmt.Errorf("-ingest requires the soccer domain: the ingest classifier is trained on the soccer media pipeline (domain is %s)", d.Name)
	case m.ShardServer && (m.Of <= 0 || m.Shard < 0 || m.Shard >= m.Of):
		return fmt.Errorf("need -shard in [0, of) and -of >= 1 (got -shard %d -of %d)", m.Shard, m.Of)
	}
	return nil
}
