// Domain-aware serving tests: a non-soccer model must be parsed and
// rendered in its own vocabulary end to end, the federated endpoint
// must round-trip through the Go client, and the coalescing path must
// stay bit-identical to an uncoalesced server on every domain.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"

	"github.com/videodb/hmmm/internal/api"
	"github.com/videodb/hmmm/internal/client"
	"github.com/videodb/hmmm/internal/fed"
	"github.com/videodb/hmmm/internal/hmmm"
	"github.com/videodb/hmmm/internal/retrieval"
	"github.com/videodb/hmmm/internal/retrieval/retrievaltest"
	"github.com/videodb/hmmm/internal/videomodel"
)

func domainModel(t *testing.T, d *videomodel.Domain, seed uint64) *hmmm.Model {
	t.Helper()
	return retrievaltest.RandomModel(t, retrievaltest.Config{
		Seed: seed, Videos: 5, MaxShots: 10, Events: d.NumEvents(), Domain: d, LearnP12: true,
	})
}

// TestDomainServing pins that a basketball-stamped model is served in
// basketball vocabulary: /api/events names it, its patterns parse, and
// soccer patterns are rejected.
func TestDomainServing(t *testing.T) {
	d := videomodel.Basketball()
	_, ts := resilientServer(t, Config{
		Model:   domainModel(t, d, 61),
		Options: retrieval.Options{Beam: 10, TopK: 10},
	})
	cl := client.New(ts.URL, nil)
	ctx := context.Background()

	name, events, err := cl.EventsDomain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if name != "basketball" {
		t.Errorf("events domain = %q", name)
	}
	if len(events) == 0 || events[0] != d.EventName(d.AllEvents()[0]) {
		t.Errorf("event names = %v", events)
	}

	present := retrievaltest.PresentEvents(domainModel(t, d, 61))
	pattern := d.EventName(present[0])
	resp, err := cl.Query(ctx, api.QueryRequest{Pattern: pattern})
	if err != nil {
		t.Fatalf("basketball pattern %q rejected: %v", pattern, err)
	}
	if _, err := cl.Query(ctx, api.QueryRequest{Pattern: "goal"}); err == nil {
		t.Error("soccer pattern accepted by basketball server")
	}
	if _, err := cl.Parse(ctx, fmt.Sprintf("%s & !%s", pattern, d.EventName(present[1]))); err != nil {
		t.Errorf("negated basketball pattern rejected: %v", err)
	}

	// A retrained model is still a basketball model: the served vocabulary
	// comes from the model, so a retrain must not change it.
	if len(resp.Matches) == 0 {
		t.Fatal("no matches to give feedback on")
	}
	if _, err := cl.Feedback(ctx, resp.Matches[0].States); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Retrain(ctx); err != nil {
		t.Fatal(err)
	}
	if name, _, err := cl.EventsDomain(ctx); err != nil || name != "basketball" {
		t.Errorf("events domain after retrain = %q, %v", name, err)
	}
	if _, err := cl.Query(ctx, api.QueryRequest{Pattern: pattern}); err != nil {
		t.Errorf("basketball pattern %q rejected after retrain: %v", pattern, err)
	}
	if _, err := cl.Query(ctx, api.QueryRequest{Pattern: "goal"}); err == nil {
		t.Error("soccer pattern accepted by the retrained basketball server")
	}
}

func federatedServer(t *testing.T) (*client.Client, *videomodel.Domain, *hmmm.Model) {
	t.Helper()
	soccer, news := videomodel.Soccer(), videomodel.News()
	ms, mn := domainModel(t, soccer, 71), domainModel(t, news, 72)
	opts := retrieval.Options{AnnotatedOnly: true, Beam: 10, TopK: 10}
	engS, err := retrieval.NewEngine(ms, opts)
	if err != nil {
		t.Fatal(err)
	}
	engN, err := retrieval.NewEngine(mn, opts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fed.New([]fed.Member{
		{Name: "soccer", Domain: soccer, States: ms.NumStates(), Retriever: engS},
		{Name: "news", Domain: news, States: mn.NumStates(), Retriever: engN},
	}, fed.Options{TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := resilientServer(t, Config{Model: ms, Federation: f})
	return client.New(ts.URL, nil), soccer, ms
}

// TestFederatedEndpoint round-trips a federated query through the HTTP
// client: soccer executes, news is skipped with a reason, matches carry
// member tags, and bad requests map to the right status codes.
func TestFederatedEndpoint(t *testing.T) {
	cl, soccer, ms := federatedServer(t)
	ctx := context.Background()
	present := retrievaltest.PresentEvents(ms)
	pattern := soccer.EventName(present[0])

	resp, err := cl.QueryFederated(ctx, api.FederatedQueryRequest{Pattern: pattern, TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Pattern != pattern {
		t.Errorf("echoed pattern %q", resp.Pattern)
	}
	if len(resp.Members) != 2 {
		t.Fatalf("%d member reports", len(resp.Members))
	}
	var newsReport *api.FederatedMemberJSON
	for i := range resp.Members {
		if resp.Members[i].Name == "news" {
			newsReport = &resp.Members[i]
		}
	}
	if newsReport == nil || !newsReport.Skipped || newsReport.Reason == "" {
		t.Errorf("news member report: %+v", newsReport)
	}
	if resp.Normalized {
		t.Error("single executing member must not normalize")
	}
	if len(resp.Matches) == 0 {
		t.Fatal("no matches for a present event")
	}
	for i, m := range resp.Matches {
		if m.Rank != i+1 || m.Member != "soccer" || m.Domain != "soccer" {
			t.Errorf("match %d: %+v", i, m)
		}
	}

	subset, err := cl.QueryFederated(ctx, api.FederatedQueryRequest{
		Pattern: pattern, Domains: []string{"soccer"}, TopK: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(subset.Members) != 1 || subset.Members[0].Name != "soccer" {
		t.Errorf("member filter reports: %+v", subset.Members)
	}

	for _, req := range []api.FederatedQueryRequest{
		{Pattern: pattern, Domains: []string{"cricket"}},
		{Pattern: ""},
		{Pattern: "not_an_event_anywhere"},
	} {
		_, err := cl.QueryFederated(ctx, req)
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
			t.Errorf("request %+v: err = %v, want 400", req, err)
		}
	}
}

// TestFederatedNotConfigured pins the 404 for servers started without
// -domains.
func TestFederatedNotConfigured(t *testing.T) {
	_, ts := resilientServer(t, Config{Model: testModel(t)})
	cl := client.New(ts.URL, nil)
	_, err := cl.QueryFederated(context.Background(), api.FederatedQueryRequest{Pattern: "goal"})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Errorf("err = %v, want 404", err)
	}
}

// TestDomainCoalesceBitIdentical compares a coalescing server against
// an uncoalesced one over the same model for each domain: the coalesce
// key must classify domain-vocabulary (and negated) patterns exactly
// like soccer ones.
func TestDomainCoalesceBitIdentical(t *testing.T) {
	for _, d := range retrievaltest.Domains() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			m := domainModel(t, d, 81)
			_, coalescedTS := resilientServer(t, Config{
				Model: m, Options: retrieval.Options{Beam: 10, TopK: 10}, Coalesce: true,
			})
			_, plainTS := resilientServer(t, Config{
				Model: m, Options: retrieval.Options{Beam: 10, TopK: 10},
			})
			present := retrievaltest.PresentEvents(m)
			patterns := []string{
				d.EventName(present[0]),
				fmt.Sprintf("%s -> %s", d.EventName(present[0]), d.EventName(present[1])),
				fmt.Sprintf("%s & !%s", d.EventName(present[0]), d.EventName(present[1])),
			}
			httpc := &http.Client{}
			for _, p := range patterns {
				req := api.QueryRequest{Pattern: p}
				cs, cr := doQuery(httpc, coalescedTS.URL, req)
				ps, pr := doQuery(httpc, plainTS.URL, req)
				if cs != http.StatusOK || ps != http.StatusOK {
					t.Fatalf("%s: status %d vs %d", p, cs, ps)
				}
				if len(cr.Matches) != len(pr.Matches) {
					t.Fatalf("%s: %d matches vs %d", p, len(cr.Matches), len(pr.Matches))
				}
				for i := range cr.Matches {
					if cr.Matches[i].Score != pr.Matches[i].Score ||
						fmt.Sprint(cr.Matches[i].States) != fmt.Sprint(pr.Matches[i].States) {
						t.Errorf("%s: match %d diverges: %+v vs %+v", p, i, cr.Matches[i], pr.Matches[i])
					}
				}
			}
		})
	}
}
