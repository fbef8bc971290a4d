// Ingest demonstrates growing an archive: a new raw video (continuous
// frames + audio, standing in for a camera feed) is segmented into shots
// and auto-annotated by a decision-tree event classifier, and a new HMMM
// is built over the old archive plus the new video — the same three calls
// (Segment, live.Union, hmmm.Build) a live server's compaction makes —
// after which queries see the new material.
package main

import (
	"fmt"
	"log"

	hmmm "github.com/videodb/hmmm"
	core "github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/live"
)

func main() {
	// An existing archive and model.
	corpus, err := hmmm.GenerateCorpus(hmmm.CorpusConfig{Seed: 4, Videos: 6, Shots: 300, Annotated: 48})
	if err != nil {
		log.Fatal(err)
	}
	build := core.BuildOptions{LearnP12: true}
	model, err := core.Build(corpus.Archive, corpus.Features, build)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("archive: %d videos, %d shots, %d model states\n",
		len(corpus.Archive.Videos), corpus.Archive.NumShots(), model.NumStates())

	// Train the event classifier on labeled shots (refs [6][7] style),
	// then build the ingestion pipeline.
	fmt.Println("training the event decision tree...")
	classifier, err := hmmm.TrainEventClassifier(1, 16)
	if err != nil {
		log.Fatal(err)
	}
	pipeline, err := hmmm.NewIngestPipeline(classifier, 0.5)
	if err != nil {
		log.Fatal(err)
	}

	// New raw footage arrives: an eventful final ten minutes.
	timeline := []hmmm.Event{
		0, hmmm.EventFoul, hmmm.EventFreeKick, hmmm.EventGoal, 0,
		hmmm.EventGoalKick, hmmm.EventCornerKick, hmmm.EventGoal, hmmm.EventPlayerChange, 0,
	}
	raw := hmmm.SynthesizeRawVideo(99, "final-minutes", timeline, 4000)
	fmt.Printf("ingesting %q: %d frames, %.0fs of audio\n",
		raw.Name, len(raw.Frames), raw.Audio.Duration().Seconds())

	// The new video's ID and shot IDs continue past the archive's.
	first := corpus.Archive.Videos[0]
	maxVideo, maxShot := first.ID, first.Shots[0].ID
	for _, v := range corpus.Archive.Videos {
		maxVideo = max(maxVideo, v.ID)
		for _, s := range v.Shots {
			maxShot = max(maxShot, s.ID)
		}
	}
	res, err := pipeline.Segment(raw, maxVideo+1, maxShot+1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("segmented into %d shots; classifier annotated %d of them\n",
		len(res.Video.Shots), res.AutoAnnotated)
	for _, s := range res.Video.Shots {
		if s.Annotated() {
			fmt.Printf("  shot %d [%dms-%dms]: %v\n", s.ID, s.StartMS, s.EndMS, s.Events)
		}
	}

	// A model is never extended in place: build a new one over the union.
	union, feats, err := live.Union(corpus.Archive, corpus.Features, []live.Record{live.NewRecord(res, 0)})
	if err != nil {
		log.Fatal(err)
	}
	grown, err := core.Build(union, feats, build)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("new model has %d states across %d videos\n", grown.NumStates(), grown.NumVideos())

	engine, err := hmmm.NewEngine(grown, hmmm.SearchOptions{TopK: 5, Beam: 4})
	if err != nil {
		log.Fatal(err)
	}
	result, err := engine.Retrieve(hmmm.NewQuery(hmmm.EventGoal))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntop goal shots after ingestion:")
	for i, m := range result.Matches {
		marker := ""
		if m.Videos[0] == res.Video.ID {
			marker = "   <-- from the ingested video"
		}
		fmt.Printf("  #%d score=%.4f video %d shot %d%s\n", i+1, m.Score, m.Videos[0], m.Shots[0], marker)
	}
}
