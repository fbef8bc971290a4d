// Coalesce-key normalization for retrieval options: two requests may
// share one execution only when every result-affecting knob matches, and
// must share one whenever only observer knobs or build-time settings
// differ (an instrumented request and a bare one return bit-identical
// rankings, so keeping them apart would throw coalescing opportunities
// away for no correctness gain).
package coalesce

import (
	"strconv"
	"strings"

	"github.com/videodb/hmmm/internal/retrieval"
)

// appendOptions appends the identity fields of o to dst as a canonical
// key fragment: the fields that can change the returned ranking (or its
// cost accounting). It must encode exactly the identity fields
// key_test.go classifies.
func appendOptions(dst []byte, o retrieval.Options) []byte {
	dst = append(dst, "k="...)
	dst = strconv.AppendInt(dst, int64(o.TopK), 10)
	dst = append(dst, ";b="...)
	dst = strconv.AppendInt(dst, int64(o.Beam), 10)
	dst = append(dst, ";x="...)
	dst = strconv.AppendBool(dst, o.CrossVideo)
	dst = append(dst, ";a="...)
	dst = strconv.AppendBool(dst, o.AnnotatedOnly)
	dst = append(dst, ";c="...)
	return strconv.AppendInt(dst, int64(o.CoarseCandidates), 10)
}

// QueryKey builds the full coalesce key for one server query execution:
// the published model generation (results from different generations
// must never be shared — a retrain between two arrivals means the later
// request could otherwise read rankings from a model it has already
// observed superseded), the delta generation (live ingest publishes a
// new delta sub-model per accepted video, and a query over N fresh
// videos must not share its ranking with one over N+1; zero when live
// ingest is off), the canonical pattern text (matn.Format output, so
// spelling variants of the same network coalesce), the identity options,
// the query scope, and the effective deadline budget in nanoseconds
// (requests with different budgets run with different truncation
// behavior, so they do not share). Everything before the pattern is
// rendered into a stack buffer, so the key costs one allocation.
func QueryKey(generation, deltaGeneration uint64, canonicalPattern string, opts retrieval.Options,
	scope *retrieval.Scope, budgetNS int64) string {
	var buf [256]byte
	h := append(buf[:0], "g="...)
	h = strconv.AppendUint(h, generation, 10)
	h = append(h, "|dg="...)
	h = strconv.AppendUint(h, deltaGeneration, 10)
	h = append(h, '|')
	h = appendOptions(h, opts)
	h = append(h, "|d="...)
	h = strconv.AppendInt(h, budgetNS, 10)
	h = append(h, "|sc="...)
	if scope != nil {
		h = strconv.AppendInt(h, int64(scope.Video), 10)
		h = append(h, ',')
		h = strconv.AppendInt(h, int64(scope.FromMS), 10)
		h = append(h, ',')
		h = strconv.AppendInt(h, int64(scope.ToMS), 10)
	}
	h = append(h, "|q="...)
	var b strings.Builder
	b.Grow(len(h) + len(canonicalPattern))
	b.Write(h)
	b.WriteString(canonicalPattern)
	return b.String()
}
