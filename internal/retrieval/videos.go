package retrieval

import (
	"fmt"
	"math"
	"sort"

	"github.com/videodb/hmmm/internal/videomodel"
)

// VideoRank is one entry of a video-level ranking.
type VideoRank struct {
	VideoIdx int
	VideoID  videomodel.VideoID
	Score    float64
}

// RankVideos scores every video for a temporal pattern query using only
// the level-2 matrices — the Step-2 signal of the retrieval process,
// exposed as a browsing primitive ("which matches likely contain this
// pattern?"). The score multiplies Π2 with each queried concept's
// normalized presence in B2.
func (e *Engine) RankVideos(q Query) ([]VideoRank, error) {
	if err := q.validateFor(e.m.NumConcepts()); err != nil {
		return nil, err
	}
	// Per-concept column totals of B2 normalize the presence terms.
	totals := make([]float64, e.m.NumConcepts())
	for ci := range totals {
		totals[ci] = e.m.B2.ColSum(ci)
	}
	out := make([]VideoRank, e.m.NumVideos())
	for vi := range out {
		score := e.m.Pi2[vi]
		for _, st := range q.Steps {
			for _, ev := range st.Events {
				ci := ev.Index()
				if totals[ci] == 0 {
					score = 0
					continue
				}
				score *= e.m.B2.At(vi, ci) / totals[ci]
			}
		}
		out[vi] = VideoRank{VideoIdx: vi, VideoID: e.m.VideoIDs[vi], Score: score}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].VideoIdx < out[j].VideoIdx
	})
	return out, nil
}

// SimilarVideos ranks the other videos by similarity to video vi: the
// cosine similarity of their B2 event profiles blended with the learned
// A2 affinity (weighted alpha and 1-alpha respectively). This is the
// Section-4.2.2 "cluster the videos describing similar events" signal as
// a browsing operation.
func (e *Engine) SimilarVideos(vi int, alpha float64, topK int) ([]VideoRank, error) {
	if vi < 0 || vi >= e.m.NumVideos() {
		return nil, fmt.Errorf("retrieval: video index %d out of range (%d videos)", vi, e.m.NumVideos())
	}
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("retrieval: alpha %v outside [0,1]", alpha)
	}
	if topK <= 0 {
		topK = DefaultTopK
	}
	base := e.m.B2.Row(vi)
	out := make([]VideoRank, 0, e.m.NumVideos()-1)
	for vj := 0; vj < e.m.NumVideos(); vj++ {
		if vj == vi {
			continue
		}
		score := float64(alpha*cosine(base, e.m.B2.Row(vj))) + float64((1-alpha)*e.m.A2.At(vi, vj))
		out = append(out, VideoRank{VideoIdx: vj, VideoID: e.m.VideoIDs[vj], Score: score})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].VideoIdx < out[j].VideoIdx
	})
	if len(out) > topK {
		out = out[:topK]
	}
	return out, nil
}

func cosine(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += float64(a[i] * b[i])
		na += float64(a[i] * a[i])
		nb += float64(b[i] * b[i])
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}
