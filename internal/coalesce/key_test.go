package coalesce

import (
	"reflect"
	"testing"

	"github.com/videodb/hmmm/internal/obs"
	"github.com/videodb/hmmm/internal/retrieval"
)

// identityFields are the retrieval.Options fields that
// participate in the coalesce key: each one can change the returned
// ranking (or its cost accounting), so requests differing in any of them
// must not share an execution.
var identityFields = []string{
	"TopK",
	"Beam",
	"CrossVideo",
	"AnnotatedOnly",
	"StopAfterMatches",
	"CoarseCandidates",
}

// ignoredFields are the retrieval.Options fields deliberately
// excluded from the coalesce key, in two classes. Observer-only fields
// (Metrics, Trace, Tracer) record what happened without affecting it, so
// an instrumented request and a bare one coalesce together — the
// explicit requirement the classification test pins. The build-time
// field NoSimCache is read only by retrieval.NewEngine — a per-request
// view keeps the engine's setting whatever the request carries — and the
// engine's differential suites pin results bit-identical across both
// settings, so it cannot change what a waiter receives.
//
// Every retrieval.Options field MUST appear in exactly one of these two
// lists; TestOptionsKeyCoversEveryField fails on any new field until it
// is classified here and (for identity fields) encoded in OptionsKey.
var ignoredFields = []string{
	// Observer-only.
	"Metrics",
	"Trace",
	"Tracer",
	// Build-time, read only by NewEngine; pinned bit-identical by the
	// differential suites.
	"NoSimCache",
}

// TestOptionsKeyCoversEveryField enumerates retrieval.Options via
// reflection and fails when any field is neither an identity field nor a
// deliberately ignored one. Adding a field to Options without deciding
// whether it changes retrieval results breaks this test — which is the
// point: an unclassified result-affecting field silently shared across
// coalesced requests would be a correctness bug, and an unclassified
// observer field would silently stop instrumented and bare requests from
// coalescing.
func TestOptionsKeyCoversEveryField(t *testing.T) {
	classified := make(map[string]string)
	for _, f := range identityFields {
		classified[f] = "identity"
	}
	for _, f := range ignoredFields {
		if prev, ok := classified[f]; ok {
			t.Errorf("field %s classified twice (%s and ignored)", f, prev)
		}
		classified[f] = "ignored"
	}
	typ := reflect.TypeOf(retrieval.Options{})
	seen := make(map[string]bool)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		seen[name] = true
		if _, ok := classified[name]; !ok {
			t.Errorf("retrieval.Options.%s is not classified: add it to "+
				"identityFields (and OptionsKey) if it can change results, "+
				"or to ignoredFields if it is observer- or execution-only", name)
		}
	}
	for name := range classified {
		if !seen[name] {
			t.Errorf("classified field %s no longer exists on retrieval.Options", name)
		}
	}
}

// TestOptionsKeyIgnoresObserverFields: attaching Metrics/Trace/Tracer
// must not change the key, so instrumented and bare requests coalesce.
func TestOptionsKeyIgnoresObserverFields(t *testing.T) {
	base := retrieval.Options{TopK: 10, Beam: 4, CrossVideo: true}
	instrumented := base
	reg := obs.NewRegistry()
	instrumented.Metrics = retrieval.NewMetrics(reg)
	instrumented.Trace = obs.NewTrace()
	instrumented.NoSimCache = true
	if OptionsKey(base) != OptionsKey(instrumented) {
		t.Errorf("observer/execution fields leaked into the key:\n%s\n%s",
			OptionsKey(base), OptionsKey(instrumented))
	}
}

// TestOptionsKeySeparatesIdentityFields: every identity field changes
// the key when it changes.
func TestOptionsKeySeparatesIdentityFields(t *testing.T) {
	base := retrieval.Options{TopK: 10, Beam: 4}
	variants := map[string]retrieval.Options{
		"TopK":             {TopK: 11, Beam: 4},
		"Beam":             {TopK: 10, Beam: 5},
		"CrossVideo":       {TopK: 10, Beam: 4, CrossVideo: true},
		"AnnotatedOnly":    {TopK: 10, Beam: 4, AnnotatedOnly: true},
		"StopAfterMatches": {TopK: 10, Beam: 4, StopAfterMatches: true},
		"CoarseCandidates": {TopK: 10, Beam: 4, CoarseCandidates: 12},
	}
	if len(variants) != len(identityFields) {
		t.Fatalf("variant table covers %d fields, identity list has %d — keep them in sync",
			len(variants), len(identityFields))
	}
	for name, v := range variants {
		if OptionsKey(base) == OptionsKey(v) {
			t.Errorf("changing %s did not change the key", name)
		}
	}
}

// TestQueryKeySeparation: generation, delta generation, scope, budget,
// and pattern all partition the key space.
func TestQueryKeySeparation(t *testing.T) {
	opts := retrieval.Options{TopK: 10, Beam: 4}
	base := QueryKey(1, 0, "goal -> free_kick", opts, nil, 0)
	if QueryKey(2, 0, "goal -> free_kick", opts, nil, 0) == base {
		t.Error("model generation does not partition the key")
	}
	if QueryKey(1, 1, "goal -> free_kick", opts, nil, 0) == base {
		t.Error("delta generation does not partition the key")
	}
	if QueryKey(1, 0, "goal", opts, nil, 0) == base {
		t.Error("pattern does not partition the key")
	}
	if QueryKey(1, 0, "goal -> free_kick", opts, &retrieval.Scope{Video: 3}, 0) == base {
		t.Error("scope does not partition the key")
	}
	if QueryKey(1, 0, "goal -> free_kick", opts, nil, int64(5e9)) == base {
		t.Error("deadline budget does not partition the key")
	}
}
