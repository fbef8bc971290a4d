package experiments

import (
	"fmt"
	"time"

	"github.com/videodb/hmmm/internal/dataset"
	"github.com/videodb/hmmm/internal/feedback"
	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/retrieval"
)

// X1CostComparison quantifies the paper's claim that HMMM retrieves
// "quickly with lower computational costs": greedy HMMM traversal versus
// the exhaustive baseline across corpus scales (¼×, ½×, 1×, 2× the paper's
// size), reporting latency, similarity evaluations, and top-10 ranking
// agreement.
func (s *Suite) X1CostComparison() (*Report, error) {
	r := &Report{ID: "X1", Title: "Claim — retrieval cost: HMMM traversal vs exhaustive baseline by corpus scale"}
	scales := []struct {
		name   string
		factor float64
	}{
		{"1/4x", 0.25}, {"1/2x", 0.5}, {"1x", 1}, {"2x", 2},
	}
	queries := QuerySet()
	r.Printf("%-5s %7s %9s %12s %12s %12s %12s %9s", "scale", "videos", "states", "hmmm-sim", "bf-sim", "hmmm-time", "bf-time", "overlap@10")
	for _, sc := range scales {
		cfg := dataset.Config{
			Seed:      s.Seed + 100,
			Videos:    max(2, int(54*sc.factor)),
			Shots:     max(20, int(11567*sc.factor)),
			Annotated: max(4, int(506*sc.factor)),
			Fast:      true,
		}
		corpus, err := dataset.Build(cfg)
		if err != nil {
			return nil, err
		}
		model, err := hmmm.Build(corpus.Archive, corpus.Features, hmmm.BuildOptions{LearnP12: true})
		if err != nil {
			return nil, err
		}
		eng, err := retrieval.NewEngine(model, retrieval.Options{
			AnnotatedOnly: true, Beam: 4, TopK: 10, StopAfterMatches: true,
		})
		if err != nil {
			return nil, err
		}
		var hmmmSim, bfSim int
		var hmmmTime, bfTime time.Duration
		var overlaps []float64
		for _, q := range queries {
			t0 := time.Now()
			res, err := eng.Retrieve(q)
			if err != nil {
				return nil, err
			}
			hmmmTime += time.Since(t0)
			hmmmSim += res.Cost.SimEvals

			t0 = time.Now()
			bf, err := retrieval.BruteForce(model, q, 10)
			if err != nil {
				return nil, err
			}
			bfTime += time.Since(t0)
			bfSim += bf.Cost.SimEvals
			overlaps = append(overlaps, OverlapAtK(bf.Matches, res.Matches, 10))
		}
		n := len(queries)
		r.Printf("%-5s %7d %9d %12d %12d %12v %12v %9.2f",
			sc.name, cfg.Videos, model.NumStates(), hmmmSim/n, bfSim/n,
			(hmmmTime / time.Duration(n)).Round(time.Microsecond),
			(bfTime / time.Duration(n)).Round(time.Microsecond),
			meanOf(overlaps))
	}
	r.Printf("")
	r.Printf("shape check: the HMMM traversal should evaluate several times fewer")
	r.Printf("similarities than the exhaustive scan while agreeing with its top ranking.")
	return r, nil
}

// X2FeedbackLearning quantifies the paper's claim that "feedbacks and
// learning strategies ... assure the continuous improvements of the
// overall performance": retrieval quality over successive rounds of
// simulated relevance feedback and offline retraining.
func (s *Suite) X2FeedbackLearning() (*Report, error) {
	r := &Report{ID: "X2", Title: "Claim — continuous improvement from feedback (learning curve)"}
	model := s.Model
	queries := QuerySet()
	user := feedback.NewSimulatedUser(s.Seed+7, 0)
	log := feedback.NewLog()
	trainer := feedback.NewTrainer(1)

	const rounds = 8
	r.Printf("%-6s %6s %6s %10s %8s %12s", "round", "P@1", "P@5", "nDCG@10", "MAP", "A1-entropy")
	for round := 0; round <= rounds; round++ {
		eng, err := retrieval.NewEngine(model, retrieval.Options{AnnotatedOnly: false, Beam: 4, TopK: 10})
		if err != nil {
			return nil, err
		}
		var p1s, p5s, ndcgs, aps []float64
		var judged [][]int
		for _, q := range queries {
			res, err := eng.Retrieve(q)
			if err != nil {
				return nil, err
			}
			p1s = append(p1s, PrecisionAtK(model, res.Matches, q, 1))
			p5s = append(p5s, PrecisionAtK(model, res.Matches, q, 5))
			ndcgs = append(ndcgs, NDCGAtK(model, res.Matches, q, 10))
			aps = append(aps, AveragePrecision(model, res.Matches, q, retrieval.GroundTruthCount(model, q)))
			judged = append(judged, user.Judge(model, q, res.Matches)...)
		}
		r.Printf("%-6d %6.3f %6.3f %10.3f %8.3f %12.3f",
			round, meanOf(p1s), meanOf(p5s), meanOf(ndcgs), meanOf(aps), model.MeanA1Entropy())
		if round == rounds {
			break
		}
		for _, states := range judged {
			if err := log.MarkPositive(model, states); err != nil {
				return nil, err
			}
		}
		if model, err = trainer.Retrain(model, log); err != nil {
			return nil, err
		}
	}
	r.Printf("")
	r.Printf("shape check: early precision and MAP rise (to noise) across the first")
	r.Printf("rounds while the mean A1 row entropy falls — Eqs. (1)-(6) concentrate")
	r.Printf("probability mass on user-confirmed patterns.")
	return r, nil
}

// X3Ablation measures the contribution of each design choice DESIGN.md
// calls out: learned P1,2 weights vs the uniform Eq. 7 initialization,
// feedback-trained A1/Π1 vs initialization only, and beam width vs the
// paper's greedy traversal.
func (s *Suite) X3Ablation() (*Report, error) {
	r := &Report{ID: "X3", Title: "Ablation — P1,2 learning, A1 training, beam width"}
	queries := QuerySet()

	// (a) P1,2: learned (Eqs. 8-10) vs uniform (Eq. 7).
	uniform, err := hmmm.Build(s.Corpus.Archive, s.Corpus.Features, hmmm.BuildOptions{LearnP12: false})
	if err != nil {
		return nil, err
	}
	nu, err := s.rankingQuality(uniform, retrieval.Options{AnnotatedOnly: false, Beam: 4, TopK: 10})
	if err != nil {
		return nil, err
	}
	nl, err := s.rankingQuality(s.Model, retrieval.Options{AnnotatedOnly: false, Beam: 4, TopK: 10})
	if err != nil {
		return nil, err
	}
	r.Printf("(a) P1,2 weights:   uniform Eq.7 nDCG@10=%.3f P@10=%.3f | learned Eqs.8-10 nDCG@10=%.3f P@10=%.3f",
		nu.ndcg, nu.prec, nl.ndcg, nl.prec)

	// (b) A1/Π1: untrained vs after 5 feedback rounds.
	trained := s.Model
	user := feedback.NewSimulatedUser(s.Seed+13, 0)
	log := feedback.NewLog()
	trainer := feedback.NewTrainer(1)
	for round := 0; round < 5; round++ {
		eng, err := retrieval.NewEngine(trained, retrieval.Options{AnnotatedOnly: false, Beam: 4, TopK: 10})
		if err != nil {
			return nil, err
		}
		for _, q := range queries {
			res, err := eng.Retrieve(q)
			if err != nil {
				return nil, err
			}
			for _, states := range user.Judge(trained, q, res.Matches) {
				if err := log.MarkPositive(trained, states); err != nil {
					return nil, err
				}
			}
		}
		if trained, err = trainer.Retrain(trained, log); err != nil {
			return nil, err
		}
	}
	nt, err := s.rankingQuality(trained, retrieval.Options{AnnotatedOnly: false, Beam: 4, TopK: 10})
	if err != nil {
		return nil, err
	}
	r.Printf("(b) A1/Π1 training: init-only    nDCG@10=%.3f P@10=%.3f | 5 feedback rounds nDCG@10=%.3f P@10=%.3f",
		nl.ndcg, nl.prec, nt.ndcg, nt.prec)

	// (c) Beam width: greedy (1) vs 4 vs 16.
	r.Printf("(c) beam width (AnnotatedOnly, cost vs matches):")
	for _, beam := range []int{1, 4, 16} {
		eng, err := retrieval.NewEngine(s.Model, retrieval.Options{AnnotatedOnly: true, Beam: beam, TopK: 10})
		if err != nil {
			return nil, err
		}
		var sims, found int
		for _, q := range queries {
			res, err := eng.Retrieve(q)
			if err != nil {
				return nil, err
			}
			sims += res.Cost.SimEvals
			found += len(res.Matches)
		}
		r.Printf("    beam=%-3d sim evals=%-8d matches=%d", beam, sims, found)
	}
	return r, nil
}

type quality struct {
	ndcg, prec float64
}

func (s *Suite) rankingQuality(m *hmmm.Model, opts retrieval.Options) (quality, error) {
	eng, err := retrieval.NewEngine(m, opts)
	if err != nil {
		return quality{}, err
	}
	var ndcgs, precs []float64
	for _, q := range QuerySet() {
		res, err := eng.Retrieve(q)
		if err != nil {
			return quality{}, fmt.Errorf("query %s: %w", queryString(q), err)
		}
		ndcgs = append(ndcgs, NDCGAtK(m, res.Matches, q, 10))
		precs = append(precs, PrecisionAtK(m, res.Matches, q, 10))
	}
	return quality{ndcg: meanOf(ndcgs), prec: meanOf(precs)}, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
