package experiments

import (
	"math"
	"strconv"
	"strings"

	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/retrieval"
)

// Relevance grades a retrieved match against the query's ground truth: the
// fraction of steps whose state carries every required annotation (1 for
// an exact pattern, 0 for a fully spurious one).
func Relevance(m *hmmm.Model, match retrieval.Match, q retrieval.Query) float64 {
	if len(match.States) == 0 || len(match.States) != len(q.Steps) {
		return 0
	}
	hit := 0
	for i, s := range match.States {
		ok := true
		for _, e := range q.Steps[i].Events {
			if !m.States[s].HasEvent(e) {
				ok = false
				break
			}
		}
		if ok {
			hit++
		}
	}
	return float64(hit) / float64(len(q.Steps))
}

// PrecisionAtK returns the fraction of the first k matches that are exact.
func PrecisionAtK(m *hmmm.Model, matches []retrieval.Match, q retrieval.Query, k int) float64 {
	if k > len(matches) {
		k = len(matches)
	}
	if k == 0 {
		return 0
	}
	hits := 0
	for _, match := range matches[:k] {
		if retrieval.ExactMatch(m, match, q) {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

// AveragePrecision returns AP over the ranked matches with exact-match
// relevance, normalized by min(k, total relevant available). With no
// relevant results it returns 0.
func AveragePrecision(m *hmmm.Model, matches []retrieval.Match, q retrieval.Query, totalRelevant int) float64 {
	if totalRelevant == 0 {
		return 0
	}
	var sum float64
	hits := 0
	for i, match := range matches {
		if retrieval.ExactMatch(m, match, q) {
			hits++
			sum += float64(hits) / float64(i+1)
		}
	}
	denom := totalRelevant
	if len(matches) < denom {
		denom = len(matches)
	}
	if denom == 0 {
		return 0
	}
	return sum / float64(denom)
}

// NDCGAtK computes the normalized discounted cumulative gain of the
// ranking, with graded relevance from Relevance. The ideal ordering is the
// ranking's own relevances sorted descending; a ranking with no relevance
// anywhere scores 0.
func NDCGAtK(m *hmmm.Model, matches []retrieval.Match, q retrieval.Query, k int) float64 {
	if k > len(matches) {
		k = len(matches)
	}
	if k == 0 {
		return 0
	}
	rels := make([]float64, k)
	for i := 0; i < k; i++ {
		rels[i] = Relevance(m, matches[i], q)
	}
	dcg := dcgOf(rels)
	ideal := append([]float64(nil), rels...)
	sortDesc(ideal)
	idcg := dcgOf(ideal)
	if idcg == 0 {
		return 0
	}
	return dcg / idcg
}

func dcgOf(rels []float64) float64 {
	var s float64
	for i, r := range rels {
		s += r / math.Log2(float64(i)+2)
	}
	return s
}

func sortDesc(a []float64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] > a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// OverlapAtK measures how many of the reference top-k state sequences the
// candidate ranking also surfaced in its top-k (the X1 agreement metric
// between the HMMM traversal and the exhaustive baseline).
func OverlapAtK(reference, candidate []retrieval.Match, k int) float64 {
	if k > len(reference) {
		k = len(reference)
	}
	if k == 0 {
		return 1 // nothing to find
	}
	ref := make(map[string]bool, k)
	for _, m := range reference[:k] {
		ref[matchKey(m)] = true
	}
	kc := k
	if kc > len(candidate) {
		kc = len(candidate)
	}
	hits := 0
	for _, m := range candidate[:kc] {
		if ref[matchKey(m)] {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

func matchKey(m retrieval.Match) string {
	parts := make([]string, len(m.States))
	for i, s := range m.States {
		parts[i] = strconv.Itoa(s)
	}
	return strings.Join(parts, ",")
}
