package coalesce

import (
	"math"
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
	"CoarseCandidates",
}

// ignoredFields are the retrieval.Options fields deliberately
// excluded from the coalesce key, in four classes. Observer-only fields
// (Metrics, Trace, Tracer) record what happened without affecting it, so
// an instrumented request and a bare one coalesce together — the
// explicit requirement the classification test pins. The build-time
// field NoSimCache is read only by retrieval.NewEngine — a per-request
// view keeps the engine's setting whatever the request carries — and the
// engine's differential suites pin results bit-identical across both
// settings, so it cannot change what a waiter receives. The
// server-constant StopAfterMatches comes from the server's configuration,
// never from a request (server.TestQueryOptionsKeepServerStopAfterMatches),
// so every request one server keys carries the same value. The
// execution-only Deadline is set by the leader after admission, from the
// budget the key already carries: waiters ride the leader's deadline.
//
// Every retrieval.Options field MUST appear in exactly one of the two
// lists; TestOptionsKeyCoversEveryField fails on any new field until it
// is classified here and (for identity fields) encoded by appendOptions.
var ignoredFields = []string{
	// Observer-only.
	"Metrics",
	"Trace",
	"Tracer",
	// Build-time, read only by NewEngine; pinned bit-identical by the
	// differential suites.
	"NoSimCache",
	// Server-constant: copied from the server's configuration into
	// every request's options.
	"StopAfterMatches",
	// Execution-only: the leader's deadline, from the keyed budget.
	"Deadline",
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
				"identityFields (and appendOptions) if it can change results, "+
				"or to ignoredFields if it is observer- or execution-only", name)
		}
	}
	for name := range classified {
		if !seen[name] {
			t.Errorf("classified field %s no longer exists on retrieval.Options", name)
		}
	}
}

// optionsKey is the options fragment of the coalesce key.
func optionsKey(o retrieval.Options) string { return string(appendOptions(nil, o)) }

// TestOptionsKeyIgnoresObserverFields: attaching Metrics/Trace/Tracer
// must not change the key, so instrumented and bare requests coalesce;
// nor may the build-time and server-constant fields.
func TestOptionsKeyIgnoresObserverFields(t *testing.T) {
	base := retrieval.Options{TopK: 10, Beam: 4, CrossVideo: true}
	instrumented := base
	reg := obs.NewRegistry()
	instrumented.Metrics = retrieval.NewMetrics(reg)
	instrumented.Trace = obs.NewTrace()
	instrumented.NoSimCache = true
	instrumented.StopAfterMatches = true
	if optionsKey(base) != optionsKey(instrumented) {
		t.Errorf("observer/execution fields leaked into the key:\n%s\n%s",
			optionsKey(base), optionsKey(instrumented))
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
		"CoarseCandidates": {TopK: 10, Beam: 4, CoarseCandidates: 12},
	}
	if len(variants) != len(identityFields) {
		t.Fatalf("variant table covers %d fields, identity list has %d — keep them in sync",
			len(variants), len(identityFields))
	}
	for name, v := range variants {
		if optionsKey(base) == optionsKey(v) {
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

// TestQueryKeyLiteral pins the key's bytes: coalescing compares keys, so
// a rendering change is a behaviour change. The cases cover nil and
// non-nil scope, multi-digit numbers, negative values and generations
// past the int64 range.
func TestQueryKeyLiteral(t *testing.T) {
	for _, c := range []struct {
		gen, delta uint64
		pattern    string
		opts       retrieval.Options
		scope      *retrieval.Scope
		budget     int64
		want       string
	}{
		{1, 0, "goal -> free_kick", retrieval.Options{TopK: 10}, nil, 0,
			"g=1|dg=0|k=10;b=0;x=false;a=false;c=0|d=0|sc=|q=goal -> free_kick"},
		{123, 4567, "goal", retrieval.Options{TopK: 100, Beam: 250, CrossVideo: true, AnnotatedOnly: true,
			StopAfterMatches: true, CoarseCandidates: 1024}, &retrieval.Scope{Video: 101, FromMS: 2500, ToMS: 987654}, int64(5e9),
			"g=123|dg=4567|k=100;b=250;x=true;a=true;c=1024|d=5000000000|sc=101,2500,987654|q=goal"},
		{math.MaxUint64, 1 << 40, "", retrieval.Options{TopK: -3, Beam: -1}, &retrieval.Scope{}, -250,
			"g=18446744073709551615|dg=1099511627776|k=-3;b=-1;x=false;a=false;c=0|d=-250|sc=0,0,0|q="},
		{7, 0, "corner_kick -> goal", retrieval.Options{CoarseCandidates: -5}, &retrieval.Scope{Video: 3, FromMS: -10},
			math.MinInt64,
			"g=7|dg=0|k=0;b=0;x=false;a=false;c=-5|d=-9223372036854775808|sc=3,-10,0|q=corner_kick -> goal"},
	} {
		if got := QueryKey(c.gen, c.delta, c.pattern, c.opts, c.scope, c.budget); got != c.want {
			t.Errorf("QueryKey =\n%s\nwant\n%s", got, c.want)
		}
	}
}

// TestQueryKeyAllocs pins QueryKey at one allocation: the key string.
func TestQueryKeyAllocs(t *testing.T) {
	opts := retrieval.Options{TopK: 10, Beam: 64, CrossVideo: true}
	scope := &retrieval.Scope{Video: 12, FromMS: 1000, ToMS: 90000}
	if got := testing.AllocsPerRun(100, func() {
		QueryKey(42, 7, "goal -> free_kick -> corner_kick", opts, scope, int64(5e9))
	}); got != 1 {
		t.Errorf("QueryKey allocates %.0f times, want 1", got)
	}
}
