// Feedbacklearning demonstrates the paper's relevance-feedback loop
// (Section 4.2.1.1): a simulated user judges retrieved patterns, positive
// patterns accumulate in the feedback log, and the offline trainer applies
// Eqs. (1)-(6) — after which confirmed patterns rank measurably higher.
package main

import (
	"fmt"
	"log"

	hmmm "github.com/videodb/hmmm"
	"github.com/videodb/hmmm/internal/feedback"
)

func main() {
	corpus, err := hmmm.GenerateCorpus(hmmm.CorpusConfig{Seed: 5, Videos: 10, Shots: 600, Annotated: 90})
	if err != nil {
		log.Fatal(err)
	}
	model, err := hmmm.BuildModel(corpus, hmmm.ModelOptions{LearnFeatureWeights: true})
	if err != nil {
		log.Fatal(err)
	}

	queries := []hmmm.Query{
		hmmm.NewQuery(hmmm.EventGoal, hmmm.EventFreeKick),
		hmmm.NewQuery(hmmm.EventFoul, hmmm.EventFreeKick),
		hmmm.NewQuery(hmmm.EventCornerKick, hmmm.EventGoal),
	}

	user := feedback.NewSimulatedUser(99, 0) // judges by ground truth, no noise
	logbook := hmmm.NewFeedbackLog()
	trainer := hmmm.NewTrainer(1)

	fmt.Println("round  mean-top-score  exact-in-top-5")
	for round := 0; round <= 5; round++ {
		// SimilarShots admitted so imperfect results exist to learn against.
		engine, err := hmmm.NewEngine(model, hmmm.SearchOptions{TopK: 10, Beam: 4, AnnotatedOnly: false})
		if err != nil {
			log.Fatal(err)
		}
		var topSum float64
		exact := 0
		var judged [][]int
		for _, q := range queries {
			res, err := engine.Retrieve(q)
			if err != nil {
				log.Fatal(err)
			}
			if len(res.Matches) > 0 {
				topSum += res.Matches[0].Score
			}
			top5 := res.Matches
			if len(top5) > 5 {
				top5 = top5[:5]
			}
			for _, m := range top5 {
				if hmmm.ExactMatch(model, m, q) {
					exact++
				}
			}
			judged = append(judged, user.Judge(model, q, res.Matches)...)
		}
		fmt.Printf("%5d  %14.4f  %14d\n", round, topSum/float64(len(queries)), exact)
		if round == 5 {
			break
		}

		// The user marks the ground-truth-correct patterns positive; once
		// enough accumulate, the trainer returns a new model with A1, Π1,
		// A2, Π2 retrained from the log, and the next round serves it.
		for _, states := range judged {
			if err := logbook.MarkPositive(model, states); err != nil {
				log.Fatal(err)
			}
		}
		if trainer.Due(logbook) {
			if model, err = trainer.Retrain(model, logbook); err != nil {
				log.Fatal(err)
			}
			logbook.ResetPending()
		}
	}
	fmt.Println("\nconfirmed patterns accumulate probability mass: scores and early precision rise.")
}
