// Package fed executes one MATN temporal pattern across a federation of
// per-domain archives and merges the per-archive rankings into a single
// cross-domain result.
//
// Each member pairs a videomodel.Domain with a retriever over a model
// built from that domain's vocabulary. A federated query parses the
// pattern once per member against the member's own vocabulary; members
// whose vocabulary lacks a queried event are skipped (with the reason
// recorded in the member report) rather than failing the whole query,
// because "goal -> corner_kick" is a perfectly good question to ask a
// federation that happens to include a news archive.
//
// Merge semantics: a retrieval.Gather per member merges the member's
// alternation branches, ranked to the request's TopK, as the server does
// for one model; a second gather merges the members, lifting each one's
// state ids by its offset into a federation-global index space. When
// two or more members executed, raw Eq. 15 scores are not comparable
// across models (different state counts, different B1' statistics), so
// each member's scores are normalized by that member's best score
// before the final gather. With exactly one member the pipeline is a
// passthrough: offset 0, no normalization — bit-identical to querying
// the member's retriever directly, as the federation differential suite
// pins.
package fed

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"github.com/videodb/hmmm/internal/matn"
	"github.com/videodb/hmmm/internal/par"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/videomodel"
)

// Member is one archive in the federation.
type Member struct {
	// Name identifies the member in requests and reports. Unique within
	// a federation; conventionally the domain name when the federation
	// holds one archive per domain.
	Name string
	// Domain is the member's event vocabulary; patterns are parsed
	// against it.
	Domain *videomodel.Domain
	// States is the number of level-1 states in the member's model. It
	// only sizes the member's slice of the federation-global state index
	// space, so any upper bound works; the model's exact count keeps the
	// space dense.
	States int
	// Retriever executes compiled queries against the member's model,
	// viewed at the request's TopK.
	Retriever retrieval.Retriever
}

// Options tunes the federation.
type Options struct {
	// TopK bounds the merged ranking; 0 means retrieval.DefaultTopK.
	TopK int
}

// Federation fans queries out over its members. Immutable after New;
// safe for concurrent use if the member retrievers are.
type Federation struct {
	members []Member
	offsets []int // federation-global state offset per member; strictly increasing
	byName  map[string]int
	opts    Options
}

// New validates the member set and fixes the member order (which is the
// offset order, hence part of the deterministic merge contract).
func New(members []Member, opts Options) (*Federation, error) {
	if len(members) == 0 {
		return nil, errors.New("fed: federation needs at least one member")
	}
	f := &Federation{
		members: append([]Member(nil), members...),
		offsets: make([]int, len(members)),
		byName:  make(map[string]int, len(members)),
		opts:    opts,
	}
	off := 0
	for i, m := range f.members {
		if m.Name == "" {
			return nil, fmt.Errorf("fed: member %d has no name", i)
		}
		if _, dup := f.byName[m.Name]; dup {
			return nil, fmt.Errorf("fed: duplicate member name %q", m.Name)
		}
		if m.Domain == nil {
			return nil, fmt.Errorf("fed: member %q has no domain", m.Name)
		}
		if m.States <= 0 {
			return nil, fmt.Errorf("fed: member %q has %d states, want >= 1", m.Name, m.States)
		}
		if m.Retriever == nil {
			return nil, fmt.Errorf("fed: member %q has no retriever", m.Name)
		}
		f.byName[m.Name] = i
		f.offsets[i] = off
		off += m.States
	}
	return f, nil
}

// Names returns the member names in federation (offset) order.
func (f *Federation) Names() []string {
	out := make([]string, len(f.members))
	for i, m := range f.members {
		out[i] = m.Name
	}
	return out
}

// Request is one federated query.
type Request struct {
	// Pattern is the MATN pattern source, parsed per member against the
	// member's own vocabulary.
	Pattern string
	// Members optionally restricts the query to the named members; empty
	// means all. Unknown names are an error (a typo should not silently
	// shrink the federation).
	Members []string
	// TopK overrides Options.TopK for this request when positive.
	TopK int
}

// MemberReport records what one member contributed to a federated query.
type MemberReport struct {
	Name   string
	Domain string
	// Skipped is true when the member did not execute the pattern;
	// Reason says why (typically an event outside its vocabulary).
	Skipped bool
	Reason  string
	// Matches counts the member's deduplicated matches entering the
	// final merge; MaxScore is its best raw Eq. 15 score (the
	// normalization denominator when several members contribute).
	Matches  int
	MaxScore float64
	Cost     retrieval.Cost
}

// Match is one merged match tagged with the member that produced it.
// State indices are federation-global (member offset applied); Score is
// normalized to the member's best score when Response.Normalized is set,
// raw otherwise.
type Match struct {
	retrieval.Match
	Member string
	Domain string
}

// Response is a merged federated ranking.
type Response struct {
	Matches []Match
	Members []MemberReport // one per queried member, in federation order
	Cost    retrieval.Cost // summed over executing members
	// Normalized reports whether scores were rescaled to each member's
	// best raw score (true iff >= 2 members contributed matches' worth
	// of execution — i.e. at least two members actually ran).
	Normalized bool
}

// memberOutcome is the per-member scatter slot.
type memberOutcome struct {
	report MemberReport
	res    retrieval.Result // member-local state ids, raw scores
}

// Query executes req across the federation; see the package docs for
// the skip, offset, and normalization semantics.
func (f *Federation) Query(ctx context.Context, req Request) (*Response, error) {
	if strings.TrimSpace(req.Pattern) == "" {
		return nil, errors.New("fed: empty pattern")
	}
	sel, err := f.selectMembers(req.Members)
	if err != nil {
		return nil, err
	}
	topK := req.TopK
	if topK <= 0 {
		topK = f.opts.TopK
	}

	outcomes := make([]memberOutcome, len(sel))
	errs := make([]error, len(sel))
	par.For(len(sel), func(i int) {
		m := &f.members[sel[i]]
		o := &outcomes[i]
		o.report = MemberReport{Name: m.Name, Domain: m.Domain.Name}
		net, perr := matn.ParseDomain(req.Pattern, m.Domain)
		if perr != nil {
			o.report.Skipped = true
			o.report.Reason = perr.Error()
			return
		}
		queries, cerr := net.Compile()
		if cerr != nil {
			o.report.Skipped = true
			o.report.Reason = cerr.Error()
			return
		}
		gather := retrieval.Gather{TopK: topK}
		if rerr := gather.Search(ctx, m.Retriever.WithTopK(topK), queries, nil, 0); rerr != nil {
			errs[i] = fmt.Errorf("fed: member %q: %w", m.Name, rerr)
			return
		}
		o.res = gather.Done(ctx)
		o.report.Matches = len(o.res.Matches)
		o.report.Cost = o.res.Cost
		for _, mm := range o.res.Matches {
			o.report.MaxScore = max(o.report.MaxScore, mm.Score)
		}
	})
	if err := par.FirstErr(errs); err != nil {
		return nil, err
	}

	resp := &Response{Members: make([]MemberReport, len(sel))}
	executed := 0
	for i := range outcomes {
		resp.Members[i] = outcomes[i].report
		if !outcomes[i].report.Skipped {
			executed++
		}
	}
	if executed == 0 {
		var reasons []string
		for _, o := range outcomes {
			reasons = append(reasons, fmt.Sprintf("%s: %s", o.report.Name, o.report.Reason))
		}
		return nil, fmt.Errorf("fed: no member can execute the pattern (%s)", strings.Join(reasons, "; "))
	}
	resp.Normalized = executed >= 2

	// Normalize when several members ran, then gather the members at
	// their disjoint offsets.
	gather := retrieval.Gather{TopK: topK}
	for i := range outcomes {
		o := &outcomes[i]
		if o.report.Skipped {
			continue
		}
		if resp.Normalized && o.report.MaxScore > 0 {
			scale := 1 / o.report.MaxScore
			for j := range o.res.Matches {
				o.res.Matches[j].Score *= scale
			}
		}
		gather.Add(&o.res, f.offsets[sel[i]])
	}
	merged := gather.Done(ctx)
	resp.Cost = merged.Cost
	resp.Matches = make([]Match, len(merged.Matches))
	for i, mm := range merged.Matches {
		mi := f.memberOfState(mm.States)
		resp.Matches[i] = Match{Match: mm, Member: f.members[mi].Name, Domain: f.members[mi].Domain.Name}
	}
	return resp, nil
}

// selectMembers resolves a request's member filter to member indices in
// federation order.
func (f *Federation) selectMembers(names []string) ([]int, error) {
	if len(names) == 0 {
		sel := make([]int, len(f.members))
		for i := range sel {
			sel[i] = i
		}
		return sel, nil
	}
	seen := make(map[int]bool, len(names))
	for _, name := range names {
		i, ok := f.byName[name]
		if !ok {
			return nil, fmt.Errorf("fed: unknown member %q (have %s)", name, strings.Join(f.Names(), ", "))
		}
		seen[i] = true
	}
	sel := make([]int, 0, len(seen))
	for i := range f.members {
		if seen[i] {
			sel = append(sel, i)
		}
	}
	return sel, nil
}

// memberOfState maps a federation-global state sequence back to the
// member that owns it (all states of one match come from one member).
func (f *Federation) memberOfState(states []int) int {
	if len(states) == 0 {
		return 0
	}
	// offsets is strictly increasing: binary-search the owning range.
	i := sort.Search(len(f.offsets), func(i int) bool { return f.offsets[i] > states[0] }) - 1
	if i < 0 {
		i = 0
	}
	return i
}
