// Package hmmm is a from-scratch Go implementation of the Hierarchical
// Markov Model Mediator video database model and its temporal pattern
// retrieval system (Zhao, Chen, Shyu — "Video Database Modeling and
// Temporal Pattern Retrieval using Hierarchical Markov Model Mediator",
// ICDE 2006).
//
// The package is a facade over the implementation packages: it exposes
// corpus synthesis, model construction, MATN query compilation, temporal
// pattern retrieval, and relevance-feedback training behind a small,
// stable API. A typical session:
//
//	corpus, err := hmmm.GenerateCorpus(hmmm.CorpusConfig{
//		Seed: 1, Videos: 8, Shots: 400, Annotated: 64,
//	})
//	model, err := hmmm.BuildModel(corpus, hmmm.ModelOptions{LearnFeatureWeights: true})
//	engine, err := hmmm.NewEngine(model, hmmm.SearchOptions{TopK: 10})
//	queries, err := hmmm.CompileQuery("goal -> free_kick")
//	result, err := engine.Retrieve(queries[0])
//
// The paper's own evaluation artifacts (Table 1, Figures 1-5, and the
// quantitative claims) are regenerated by cmd/hmmm-experiments; see
// DESIGN.md and EXPERIMENTS.md.
package hmmm

import (
	"github.com/videodb/hmmm/internal/cluster"
	"github.com/videodb/hmmm/internal/dataset"
	"github.com/videodb/hmmm/internal/feedback"
	core "github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/ingest"
	"github.com/videodb/hmmm/internal/matn"
	"github.com/videodb/hmmm/internal/mining"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/shotdetect"
	"github.com/videodb/hmmm/internal/store"
	"github.com/videodb/hmmm/internal/videomodel"
)

// Core model types.
type (
	// Model is a two-level Hierarchical Markov Model Mediator: the
	// λ = (d, S, F, A, B, Π, P, L) 8-tuple of the paper.
	Model = core.Model
	// Corpus is a synthesized video archive with extracted Table-1
	// features for its annotated shots.
	Corpus = dataset.Corpus
	// Archive is the entity store: videos, shots, annotations.
	Archive = videomodel.Archive
	// Event is a semantic event concept (goal, corner kick, ...).
	Event = videomodel.Event
	// Query is a temporal event pattern R = {e1, ..., eC}.
	Query = retrieval.Query
	// Step is one position of a pattern: the event conjunction a single
	// shot must carry.
	Step = retrieval.Step
	// Scope restricts a query to one video and/or a time window.
	Scope = retrieval.Scope
	// Match is one retrieved shot sequence with its SS score.
	Match = retrieval.Match
	// Result is a ranked retrieval outcome with cost counters.
	Result = retrieval.Result
	// Engine runs temporal pattern retrieval over a model.
	Engine = retrieval.Engine
	// SearchOptions tunes the retrieval engine.
	SearchOptions = retrieval.Options
	// FeedbackLog accumulates positive patterns for offline retraining.
	FeedbackLog = feedback.Log
	// Trainer retrains a model from accumulated feedback.
	Trainer = feedback.Trainer
	// MATN is a parsed Multimedia Augmented Transition Network query.
	MATN = matn.Network
)

// The soccer event taxonomy (Section 3).
const (
	EventGoal         = videomodel.EventGoal
	EventCornerKick   = videomodel.EventCornerKick
	EventFreeKick     = videomodel.EventFreeKick
	EventFoul         = videomodel.EventFoul
	EventGoalKick     = videomodel.EventGoalKick
	EventYellowCard   = videomodel.EventYellowCard
	EventRedCard      = videomodel.EventRedCard
	EventPlayerChange = videomodel.EventPlayerChange
)

// CorpusConfig parameterizes synthetic corpus generation.
type CorpusConfig struct {
	// Seed makes the corpus reproducible bit-for-bit.
	Seed uint64
	// Videos, Shots, Annotated are the corpus dimensions. Zero values
	// select the paper's evaluation scale: 54 videos, 11,567 shots, 506
	// annotated events.
	Videos, Shots, Annotated int
	// KeepMedia retains rendered frames and audio on every shot.
	KeepMedia bool
}

// GenerateCorpus synthesizes a soccer-video corpus: event timelines,
// rendered media, and the 20 Table-1 features per annotated shot.
func GenerateCorpus(cfg CorpusConfig) (*Corpus, error) {
	d := dataset.Config{
		Seed:      cfg.Seed,
		Videos:    cfg.Videos,
		Shots:     cfg.Shots,
		Annotated: cfg.Annotated,
		Fast:      true,
		KeepMedia: cfg.KeepMedia,
	}
	if d.Videos == 0 && d.Shots == 0 && d.Annotated == 0 {
		d = dataset.PaperScale(cfg.Seed)
		d.KeepMedia = cfg.KeepMedia
	}
	return dataset.Build(d)
}

// ModelOptions tunes model construction.
type ModelOptions struct {
	// LearnFeatureWeights applies the Eqs. 8-10 inverse-std learning of
	// the P1,2 feature-importance matrix from the corpus annotations.
	LearnFeatureWeights bool
	// Workers bounds construction parallelism (0 = GOMAXPROCS, 1 =
	// serial). The built model is bit-identical for any worker count.
	Workers int
}

// BuildModel constructs the two-level HMMM from a corpus.
func BuildModel(c *Corpus, opts ModelOptions) (*Model, error) {
	return core.Build(c.Archive, c.Features, core.BuildOptions{
		LearnP12: opts.LearnFeatureWeights,
		Workers:  opts.Workers,
	})
}

// NewEngine returns a retrieval engine over the model.
func NewEngine(m *Model, opts SearchOptions) (*Engine, error) {
	return retrieval.NewEngine(m, opts)
}

// NewQuery builds a single-event-per-step temporal pattern.
func NewQuery(events ...Event) Query {
	return retrieval.NewQuery(events...)
}

// CompileQuery parses an MATN query text ("free_kick & goal ->
// corner_kick") and expands it to the linear patterns it accepts.
func CompileQuery(text string) ([]Query, error) {
	return matn.CompileString(text)
}

// ParseMATN parses a query text into its transition network without
// compiling it.
func ParseMATN(text string) (*MATN, error) {
	return matn.Parse(text)
}

// MergeRanked deduplicates and re-ranks matches from several pattern
// retrievals (e.g. the expansions of one MATN query).
func MergeRanked(matches []Match, topK int) []Match {
	return retrieval.MergeRanked(matches, topK)
}

// ExactMatch reports whether every step of a retrieved match lands on a
// shot annotated with the required events.
func ExactMatch(m *Model, match Match, q Query) bool {
	return retrieval.ExactMatch(m, match, q)
}

// NewFeedbackLog returns an empty relevance-feedback log.
func NewFeedbackLog() *FeedbackLog {
	return feedback.NewLog()
}

// NewTrainer returns a trainer that retrains a model once threshold
// positive feedbacks accumulate (Section 4.2.1.1).
func NewTrainer(threshold int) *Trainer {
	return feedback.NewTrainer(threshold)
}

// ParseEvent maps a snake_case event name ("corner_kick") to its Event.
func ParseEvent(name string) (Event, error) {
	return videomodel.ParseEvent(name)
}

// Events returns the full event taxonomy in concept-index order.
func Events() []Event {
	return videomodel.AllEvents()
}

// SaveModel persists a model snapshot; LoadModel restores it.
func SaveModel(path string, m *Model) error { return store.SaveModel(path, m) }

// LoadModel restores a model snapshot written by SaveModel.
func LoadModel(path string) (*Model, error) { return store.LoadModel(path) }

// SaveCorpus persists a corpus snapshot; LoadCorpus restores it.
func SaveCorpus(path string, c *Corpus) error { return store.SaveCorpus(path, c) }

// LoadCorpus restores a corpus snapshot written by SaveCorpus.
func LoadCorpus(path string) (*Corpus, error) { return store.LoadCorpus(path) }

// Ingestion API: turn new raw footage into archive videos. A model is
// never extended in place; build a new one over the grown archive.

// IngestPipeline segments raw footage and auto-annotates events with a
// decision-tree classifier.
type IngestPipeline = ingest.Pipeline

// RawVideo is un-segmented source material: a frame stream plus audio.
type RawVideo = ingest.RawVideo

// IngestResult reports what an ingestion produced.
type IngestResult = ingest.Result

// EventClassifier is a trained decision tree labeling shots with events.
type EventClassifier = mining.Tree

// TrainEventClassifier trains the event decision tree on synthesized
// labeled shots (samplesPerClass per event class plus ordinary play).
func TrainEventClassifier(seed uint64, samplesPerClass int) (*EventClassifier, error) {
	return ingest.TrainClassifier(seed, samplesPerClass, mining.Config{})
}

// NewIngestPipeline builds an ingestion pipeline with the default shot
// detector and the given classifier; minConfidence is the probability a
// classification must reach before a shot is annotated.
func NewIngestPipeline(classifier *EventClassifier, minConfidence float64) (*IngestPipeline, error) {
	return ingest.NewPipeline(shotdetect.DefaultConfig(), classifier, minConfidence)
}

// SynthesizeRawVideo renders continuous raw footage from a shot-class
// timeline — the stand-in for a camera feed or file decoder.
func SynthesizeRawVideo(seed uint64, name string, classes []Event, shotMS int) *RawVideo {
	return ingest.SynthesizeRaw(seed, name, classes, shotMS)
}

// Explanation and query-by-example API.

// StepExplanation decomposes one retrieved step's weight into its Π1 /
// A1 / A2 / sim factors with a per-feature breakdown.
type StepExplanation = retrieval.StepExplanation

// FeatureContribution is one feature's term of the Eq. 14 similarity.
type FeatureContribution = retrieval.FeatureContribution

// Video-level analysis API (Section 4.2.2: clustering videos by semantic
// event profile).

// ClusterResult is a k-means clustering of the archive's videos.
type ClusterResult = cluster.Result

// VideoRank is one entry of a video-level ranking (RankVideos,
// SimilarVideos on the Engine).
type VideoRank = retrieval.VideoRank

// ClusterVideos groups the model's videos into k clusters by their B2
// event profiles (k-means++, deterministic in seed).
func ClusterVideos(m *Model, k int, seed uint64) (*ClusterResult, error) {
	return cluster.Videos(m, k, seed)
}

// ClusterPurity scores a clustering against ground-truth labels.
func ClusterPurity(assign []int, labels []string, k int) float64 {
	return cluster.Purity(assign, labels, k)
}
