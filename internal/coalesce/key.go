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

// OptionsKey renders the identity fields of o into a canonical key
// fragment: the fields that can change the returned ranking (or its cost
// accounting). It must encode exactly the identity fields key_test.go
// classifies.
func OptionsKey(o retrieval.Options) string {
	var b strings.Builder
	b.Grow(48)
	b.WriteString("k=")
	b.WriteString(strconv.Itoa(o.TopK))
	b.WriteString(";b=")
	b.WriteString(strconv.Itoa(o.Beam))
	b.WriteString(";x=")
	b.WriteString(strconv.FormatBool(o.CrossVideo))
	b.WriteString(";a=")
	b.WriteString(strconv.FormatBool(o.AnnotatedOnly))
	b.WriteString(";s=")
	b.WriteString(strconv.FormatBool(o.StopAfterMatches))
	b.WriteString(";c=")
	b.WriteString(strconv.Itoa(o.CoarseCandidates))
	return b.String()
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
// behavior, so they do not share).
func QueryKey(generation, deltaGeneration uint64, canonicalPattern string, opts retrieval.Options,
	scope *retrieval.Scope, budgetNS int64) string {
	var b strings.Builder
	b.Grow(len(canonicalPattern) + 96)
	b.WriteString("g=")
	b.WriteString(strconv.FormatUint(generation, 10))
	b.WriteString("|dg=")
	b.WriteString(strconv.FormatUint(deltaGeneration, 10))
	b.WriteString("|")
	b.WriteString(OptionsKey(opts))
	b.WriteString("|d=")
	b.WriteString(strconv.FormatInt(budgetNS, 10))
	b.WriteString("|sc=")
	if scope != nil {
		b.WriteString(strconv.Itoa(int(scope.Video)))
		b.WriteString(",")
		b.WriteString(strconv.Itoa(scope.FromMS))
		b.WriteString(",")
		b.WriteString(strconv.Itoa(scope.ToMS))
	}
	b.WriteString("|q=")
	b.WriteString(canonicalPattern)
	return b.String()
}
