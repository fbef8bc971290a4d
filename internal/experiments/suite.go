// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index): Table 1, the
// five figures, and the in-text quantitative claims, each as a textual
// report a reader can compare against the paper.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/videodb/hmmm/internal/dataset"
	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/videomodel"
)

// Report is the textual outcome of one experiment.
type Report struct {
	ID    string
	Title string
	Lines []string
}

// Printf appends a formatted line to the report.
func (r *Report) Printf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// Suite holds a corpus and its model, shared by the experiments.
type Suite struct {
	Corpus *dataset.Corpus
	Model  *hmmm.Model // built with learned P1,2; untrained (no feedback)
	Seed   uint64
}

// NewSuite builds a corpus and its HMMM.
func NewSuite(cfg dataset.Config) (*Suite, error) {
	corpus, err := dataset.Build(cfg)
	if err != nil {
		return nil, err
	}
	model, err := hmmm.Build(corpus.Archive, corpus.Features, hmmm.BuildOptions{LearnP12: true})
	if err != nil {
		return nil, err
	}
	return &Suite{Corpus: corpus, Model: model, Seed: cfg.Seed}, nil
}

// QuerySet returns the benchmark temporal patterns used by the X
// experiments: event chains the corpus grammar actually produces, from
// single events to three-step patterns.
func QuerySet() []retrieval.Query {
	E := func(events ...videomodel.Event) retrieval.Query { return retrieval.NewQuery(events...) }
	return []retrieval.Query{
		E(videomodel.EventGoal),
		E(videomodel.EventGoal, videomodel.EventFreeKick),
		E(videomodel.EventFoul, videomodel.EventFreeKick),
		E(videomodel.EventCornerKick, videomodel.EventGoal),
		E(videomodel.EventFoul, videomodel.EventYellowCard),
		E(videomodel.EventGoal, videomodel.EventPlayerChange),
		E(videomodel.EventFoul, videomodel.EventFreeKick, videomodel.EventGoal),
		E(videomodel.EventGoalKick, videomodel.EventCornerKick),
	}
}

// queryString renders a query pattern.
func queryString(q retrieval.Query) string {
	parts := make([]string, len(q.Steps))
	for i, st := range q.Steps {
		names := make([]string, len(st.Events))
		for j, e := range st.Events {
			names[j] = e.String()
		}
		parts[i] = strings.Join(names, "&")
	}
	return strings.Join(parts, " -> ")
}

// timeIt measures fn.
func timeIt(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// meanOf returns the mean of a slice, 0 when empty.
func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// RunAll executes every experiment in order and returns the reports.
// Failures in one experiment do not abort the rest; the failure is
// reported in-line.
func (s *Suite) RunAll() []*Report {
	type exp struct {
		id string
		fn func() (*Report, error)
	}
	exps := []exp{
		{"T1", s.T1FeatureTable},
		{"F1", s.F1Pipeline},
		{"F2", s.F2RetrievalTrace},
		{"F3", s.F3LatticeCost},
		{"F4", s.F4MATNQuery},
		{"F5", s.F5PaperQuery},
		{"X1", s.X1CostComparison},
		{"X2", s.X2FeedbackLearning},
		{"X3", s.X3Ablation},
		{"X4", s.X4AutoAnnotation},
		{"X5", s.X5VideoClustering},
	}
	var out []*Report
	for _, e := range exps {
		r, err := e.fn()
		if err != nil {
			r = &Report{ID: e.id, Title: "FAILED"}
			r.Printf("error: %v", err)
		}
		out = append(out, r)
	}
	return out
}

// Run executes one experiment by ID.
func (s *Suite) Run(id string) (*Report, error) {
	switch strings.ToUpper(id) {
	case "T1":
		return s.T1FeatureTable()
	case "F1":
		return s.F1Pipeline()
	case "F2":
		return s.F2RetrievalTrace()
	case "F3":
		return s.F3LatticeCost()
	case "F4":
		return s.F4MATNQuery()
	case "F5":
		return s.F5PaperQuery()
	case "X1":
		return s.X1CostComparison()
	case "X2":
		return s.X2FeedbackLearning()
	case "X3":
		return s.X3Ablation()
	case "X4":
		return s.X4AutoAnnotation()
	case "X5":
		return s.X5VideoClustering()
	default:
		return nil, fmt.Errorf("experiments: unknown experiment %q (want T1, F1-F5, X1-X5)", id)
	}
}
