package server

import (
	"sync"
	"unsafe"

	"github.com/videodb/hmmm/internal/matn"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/videomodel"
)

// Pattern memo bounds. Both are drop-all bounds, like the engine's order
// memo: a put that would exceed either empties the memo first, so an
// adversarial stream of distinct patterns costs one re-compile per miss
// and never pins more than maxMemoPatternBytes. An entry whose own
// footprint exceeds the byte bound — a pattern the request-body cap
// still admits — is compiled for its request and not retained.
const (
	maxMemoPatterns     = 256
	maxMemoPatternBytes = 256 << 10
)

// compiledPattern is one MATN pattern text parsed and compiled against
// one domain. It is shared by every request naming that text and is
// immutable: nothing downstream writes a compiled Query's Steps (or the
// event slices they share with the parsed network), and callers set
// Scope only on a copy of a Query.
type compiledPattern struct {
	queries []retrieval.Query
	// canonical is the pattern's Format rendering, the coalesce key's
	// pattern part: spelling variants of one network ("a->b", "a -> b")
	// share one execution. It falls back to the raw text when Format
	// fails (worst case: a missed coalescing opportunity).
	canonical string
	// bytes is the entry's footprint as the byte bound counts it.
	bytes int
}

type patternKey struct {
	domain *videomodel.Domain
	text   string
}

// patternMemo maps (domain, pattern text) to its compiled form. A
// compilation depends only on the text and the domain's vocabulary —
// never on the model — so an entry is valid forever and the memo never
// invalidates; the bounds alone evict. Parse and compile errors are not
// memoized.
type patternMemo struct {
	mu      sync.Mutex
	entries map[patternKey]*compiledPattern
	bytes   int
}

// compile returns the compiled pattern for text in domain d, from the
// memo when present.
func (pm *patternMemo) compile(text string, d *videomodel.Domain) (*compiledPattern, error) {
	k := patternKey{domain: d, text: text}
	pm.mu.Lock()
	p := pm.entries[k]
	pm.mu.Unlock()
	if p != nil {
		return p, nil
	}
	network, err := matn.ParseDomain(text, d)
	if err != nil {
		return nil, err
	}
	queries, err := network.Compile()
	if err != nil {
		return nil, err
	}
	canonical, err := network.Format()
	if err != nil {
		canonical = text
	}
	p = &compiledPattern{queries: queries, canonical: canonical}
	p.bytes = len(text) + len(canonical)
	for _, q := range queries {
		p.bytes += int(unsafe.Sizeof(q)) + len(q.Steps)*int(unsafe.Sizeof(retrieval.Step{}))
	}
	if p.bytes <= maxMemoPatternBytes {
		pm.put(k, p)
	}
	return p, nil
}

// put stores an entry unless one is already there, dropping every entry
// first when the memo is full by count or would overflow its byte bound.
func (pm *patternMemo) put(k patternKey, p *compiledPattern) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if _, ok := pm.entries[k]; ok {
		return // a concurrent miss on the same text got here first
	}
	if pm.entries == nil || len(pm.entries) >= maxMemoPatterns || pm.bytes+p.bytes > maxMemoPatternBytes {
		pm.entries = make(map[patternKey]*compiledPattern)
		pm.bytes = 0
	}
	pm.entries[k] = p
	pm.bytes += p.bytes
}
