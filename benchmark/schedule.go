package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"github.com/videodb/hmmm/internal/api"
	"github.com/videodb/hmmm/internal/synthvideo"
	"github.com/videodb/hmmm/internal/videomodel"
	"github.com/videodb/hmmm/internal/xrand"
)

// Schedule shape. The 20 entries are cut so that, sorted by cost, the
// 50% and 95% marks each fall in the middle of ONE pattern's band of
// identical entries (every entry is 5% of the requests): 8 light
// single-step entries (0-40%), the mid pattern four times (40-60%, so
// p50 is its median), 4 upper entries that are supersets of the mid
// pattern's work (60-80%), and two heavy patterns twice each (80-100%,
// so p95 is the costlier one's median). A mix of 20 distinct patterns
// would put both marks on a boundary between two patterns, where a 1%
// shift in either flips the percentile from one to the other.
const (
	scheduleLen = 20
	numCheap    = 16
	numHeavy    = 4
	queryTopK   = 10
	// lightBeam covers top_k, where a single-step ranking equals the
	// brute-force oracle exactly (the gate checks that at paper scale);
	// a wide beam costs a one-stage lattice next to nothing.
	lightBeam = queryTopK
	cheapBeam = 1
	heavyBeam = 4
)

// entry is one slot of the cyclic request schedule.
type entry struct {
	pattern string
	beam    int
	// body is the exact POST /api/query payload.
	body []byte
	// expect is filled by the correctness gate: the response the served
	// deployment must keep giving for this pattern.
	expect expectation
}

// inputs is everything a workload run is given: generated from the seed
// before any set-up is timed.
type inputs struct {
	seed     uint64
	archive  *videomodel.Archive
	feats    map[videomodel.ShotID][]float64
	shots    int
	schedule []entry
	// ingest holds the videos the live_mixed writer submits, in send
	// order; nil for the read-only workloads.
	ingest []api.IngestRequest
}

// generateInputs builds the archive at the given paper-scale factor and
// the request schedule over it. ingestVideos > 0 also pre-generates that
// many ingest payloads.
func generateInputs(seed uint64, scale, ingestVideos int) (*inputs, error) {
	archive, feats, err := synthvideo.GenerateArchive(synthvideo.ScaledArchive(seed, scale))
	if err != nil {
		return nil, fmt.Errorf("generating %dx archive: %w", scale, err)
	}
	in := &inputs{seed: seed, archive: archive, feats: feats}
	for _, v := range archive.Videos {
		in.shots += len(v.Shots)
	}
	in.schedule, err = buildSchedule(seed, eventsByFrequency(archive))
	if err != nil {
		return nil, err
	}
	if ingestVideos > 0 {
		in.ingest = buildIngest(seed, ingestVideos)
	}
	return in, nil
}

// eventsByFrequency ranks the soccer vocabulary by annotation count in
// the archive, most frequent first (ties toward the lower event index).
// The schedule is written over these ranks, so every seed exercises the
// same selectivity profile on a different archive.
func eventsByFrequency(a *videomodel.Archive) []videomodel.Event {
	counts := make(map[videomodel.Event]int)
	for _, v := range a.Videos {
		for _, s := range v.Shots {
			for _, e := range s.Events {
				counts[e]++
			}
		}
	}
	events := videomodel.AllEvents()
	sort.SliceStable(events, func(i, j int) bool { return counts[events[i]] > counts[events[j]] })
	return events
}

// buildSchedule renders the 20-entry cycle over the ranked events r and
// shuffles its order with the seed.
func buildSchedule(seed uint64, r []videomodel.Event) ([]entry, error) {
	if len(r) < 8 {
		return nil, fmt.Errorf("schedule needs 8 ranked events, got %d", len(r))
	}
	n := func(i int) string { return r[i].String() }
	mid := n(0) + " -> " + n(1)
	heavy1 := n(0) + " -> " + n(1) + " -> " + n(2)
	heavy2 := n(1) + " -> " + n(0) + " -> " + n(3)
	var out []entry
	add := func(beam int, patterns ...string) error {
		for _, p := range patterns {
			body, err := json.Marshal(api.QueryRequest{Pattern: p, TopK: queryTopK, Beam: beam})
			if err != nil {
				return err
			}
			out = append(out, entry{pattern: p, beam: beam, body: body})
		}
		return nil
	}
	err := errors.Join(
		// light: single steps, one with a negation.
		add(lightBeam, n(0), n(1), n(2), n(3), n(4), n(5), n(6), n(7)+" & !"+n(0)),
		// mid: p50 is this pattern's median.
		add(cheapBeam, mid, mid, mid, mid),
		// upper: each compiles to the mid pattern plus one more linear
		// pattern (alternation or optional step).
		add(cheapBeam,
			n(0)+" | "+n(2)+" -> "+n(1),
			n(0)+" -> "+n(1)+"?",
			n(0)+" | "+n(3)+" -> "+n(1),
			n(0)+" -> "+n(1)+" | "+n(4)),
		// heavy: p95 is the costlier pattern's median.
		add(heavyBeam, heavy1, heavy1, heavy2, heavy2),
	)
	if err != nil {
		return nil, err
	}
	order := xrand.New(seed).Fork(0x5c4ed).Perm(len(out))
	shuffled := make([]entry, len(out))
	for i, j := range order {
		shuffled[i] = out[j]
	}
	return shuffled, nil
}

// Ingest videos: three rendered shots of 3000 ms, as hmmmload submits.
const (
	ingestShots  = 3
	ingestShotMS = 3000
)

// buildIngest pre-generates n seeded ingest videos.
func buildIngest(seed uint64, n int) []api.IngestRequest {
	rng := xrand.New(seed).Fork(0x1e6e57)
	events := videomodel.AllEvents()
	out := make([]api.IngestRequest, n)
	for i := range out {
		out[i] = api.IngestRequest{
			Name:   fmt.Sprintf("bench-%d-%d", seed, i),
			Seed:   rng.Uint64(),
			ShotMS: ingestShotMS,
		}
		for s := 0; s < ingestShots; s++ {
			out[i].Events = append(out[i].Events, events[rng.Intn(len(events))].String())
		}
	}
	return out
}
