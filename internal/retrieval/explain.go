package retrieval

import (
	"errors"
	"fmt"
	"sort"

	"github.com/videodb/hmmm/internal/videomodel"
)

// FeatureContribution is one feature's term of the Eq. 14 similarity sum.
type FeatureContribution struct {
	Feature    int // feature index
	Event      videomodel.Event
	Weight     float64 // P1,2(e, f)
	StateValue float64 // B1(s, f)
	EventMean  float64 // B1'(e, f)
	Term       float64 // Weight * (1 - |StateValue - EventMean|) / EventMean
}

// StepExplanation decomposes one step's edge weight (Eqs. 12-13) into its
// factors, with the per-feature breakdown of the similarity.
type StepExplanation struct {
	State      int
	Shot       videomodel.ShotID
	Pi         float64 // Π1 factor (first step only)
	Transition float64 // A1 (same video) or A2 (cross-video hop) factor
	CrossVideo bool
	Sim        float64
	Weight     float64 // the step's w_j
	// Top feature contributions across the step's events, strongest
	// first, capped at ExplainTopFeatures per event.
	Features []FeatureContribution
}

// ExplainTopFeatures caps the per-event feature breakdown in explanations.
const ExplainTopFeatures = 5

// Explain decomposes a retrieved match into per-step factor explanations:
// the answer to "why did this sequence score what it scored". The weights
// recomputed here equal the engine's within floating-point error.
func (e *Engine) Explain(match Match, q Query) ([]StepExplanation, error) {
	if len(match.States) != len(q.Steps) {
		return nil, fmt.Errorf("retrieval: match has %d steps, query has %d", len(match.States), len(q.Steps))
	}
	if len(match.States) == 0 {
		return nil, errors.New("retrieval: empty match")
	}
	out := make([]StepExplanation, len(match.States))
	w := 0.0
	for j, s := range match.States {
		if s < 0 || s >= e.m.NumStates() {
			return nil, fmt.Errorf("retrieval: match state %d out of range", s)
		}
		st := q.Steps[j]
		ex := StepExplanation{
			State: s,
			Shot:  e.m.States[s].Shot,
			Sim:   e.SimStep(s, st),
		}
		if j == 0 {
			ex.Pi = e.m.Pi1.At(s)
			w = ex.Pi * ex.Sim
		} else {
			prev := match.States[j-1]
			prevVid, curVid := e.m.VideoOf(prev), e.m.VideoOf(s)
			if prevVid == curVid {
				ex.Transition = e.transition(curVid, prev, s)
			} else {
				ex.CrossVideo = true
				ex.Transition = e.m.A2.At(prevVid, curVid)
			}
			w = w * ex.Transition * ex.Sim
		}
		ex.Weight = w
		ex.Features = e.featureBreakdown(s, st)
		out[j] = ex
	}
	return out, nil
}

// featureBreakdown returns the strongest Eq. 14 terms for each event of
// the step.
func (e *Engine) featureBreakdown(s int, step Step) []FeatureContribution {
	var all []FeatureContribution
	bRow := e.m.B1.Row(s)
	for _, ev := range step.Events {
		ci := ev.Index()
		meanRow := e.m.B1Prime.Row(ci)
		pRow := e.m.P12.Row(ci)
		var terms []FeatureContribution
		for f, mean := range meanRow {
			if mean <= DefaultSimEpsilon {
				continue
			}
			d := bRow[f] - mean
			if d < 0 {
				d = -d
			}
			terms = append(terms, FeatureContribution{
				Feature:    f,
				Event:      ev,
				Weight:     pRow[f],
				StateValue: bRow[f],
				EventMean:  mean,
				Term:       pRow[f] * (1 - d) / mean,
			})
		}
		sort.Slice(terms, func(i, j int) bool { return terms[i].Term > terms[j].Term })
		if len(terms) > ExplainTopFeatures {
			terms = terms[:ExplainTopFeatures]
		}
		all = append(all, terms...)
	}
	return all
}

// QueryByExample ranks the model's states by Eq. 14-style similarity to a
// raw (un-normalized) feature vector — the Query-by-Example mode of the
// MMM lineage (the paper's ref. [15] image retrieval). The vector is
// normalized with the model's Eq. 3 bounds. When concept is a valid
// event, that concept's learned P1,2 weights emphasize its discriminative
// features; EventNone weighs all features uniformly.
func (e *Engine) QueryByExample(raw []float64, concept videomodel.Event, topK int) ([]Match, error) {
	if len(raw) != e.m.K() {
		return nil, fmt.Errorf("retrieval: example has %d features, model has %d", len(raw), e.m.K())
	}
	if topK <= 0 {
		topK = DefaultTopK
	}
	probe := append([]float64(nil), raw...)
	e.m.Scaler.TransformRow(probe)

	uniform := 1 / float64(e.m.K())
	var pRow []float64
	if concept.Valid() {
		pRow = e.m.P12.Row(concept.Index())
	}
	matches := make([]Match, 0, e.m.NumStates())
	for s := 0; s < e.m.NumStates(); s++ {
		bRow := e.m.B1.Row(s)
		var sim float64
		for f, v := range probe {
			w := uniform
			if pRow != nil {
				w = pRow[f]
			}
			d := bRow[f] - v
			if d < 0 {
				d = -d
			}
			sim += float64(w * (1 - d))
		}
		matches = append(matches, Match{
			States: []int{s},
			Shots:  []videomodel.ShotID{e.m.States[s].Shot},
			Videos: []videomodel.VideoID{e.m.VideoIDs[e.m.VideoOf(s)]},
			Score:  sim,
		})
	}
	sortMatches(matches)
	if len(matches) > topK {
		matches = matches[:topK]
	}
	return matches, nil
}
