package client

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"github.com/videodb/hmmm/internal/api"
)

// TestEndpoints pins each method's half of the wire contract: the HTTP
// method and path it requests, the JSON body it sends (none for a GET,
// "{}" for a bodiless POST), and how it decodes the server's reply.
func TestEndpoints(t *testing.T) {
	for _, tc := range []struct {
		name         string
		method, path string
		body         string // request body as JSON; "" for none
		reply        string
		call         func(*Client) (any, error)
		want         any
	}{
		{
			name: "Events", method: http.MethodGet, path: "/api/events",
			reply: `{"domain":"soccer","events":["goal","foul"]}`,
			call:  func(c *Client) (any, error) { return c.Events(context.Background()) },
			want:  []string{"goal", "foul"},
		},
		{
			name: "EventsDomain", method: http.MethodGet, path: "/api/events",
			reply: `{"domain":"basketball","events":["dunk"]}`,
			call: func(c *Client) (any, error) {
				d, ev, err := c.EventsDomain(context.Background())
				return []any{d, ev}, err
			},
			want: []any{"basketball", []string{"dunk"}},
		},
		{
			name: "Videos", method: http.MethodGet, path: "/api/videos",
			reply: `{"videos":[{"id":3,"states":7,"event_counts":{"goal":2}}]}`,
			call:  func(c *Client) (any, error) { return c.Videos(context.Background()) },
			want:  []api.VideoJSON{{ID: 3, States: 7, EventCounts: map[string]int{"goal": 2}}},
		},
		{
			name: "State", method: http.MethodGet, path: "/api/states/12",
			reply: `{"state":12,"shot":40,"video":3,"start_ms":900,"events":["foul"],"pi":0.25,"b1":[0.5]}`,
			call:  func(c *Client) (any, error) { return c.State(context.Background(), 12) },
			want: &api.ShotResponse{State: 12, Shot: 40, Video: 3, StartMS: 900,
				Events: []string{"foul"}, Pi: 0.25, B1: []float64{0.5}},
		},
		{
			name: "Parse", method: http.MethodPost, path: "/api/parse",
			body:  `{"pattern":"goal -> foul"}`,
			reply: `{"pattern":"goal -> foul","network":"n","states":3,"arcs":2,"expanded":["goal -> foul"]}`,
			call:  func(c *Client) (any, error) { return c.Parse(context.Background(), "goal -> foul") },
			want: &api.ParseResponse{Pattern: "goal -> foul", Network: "n", States: 3, Arcs: 2,
				Expanded: []string{"goal -> foul"}},
		},
		{
			name: "RankVideos", method: http.MethodPost, path: "/api/videos/rank",
			body:  `{"pattern":"goal","top_k":4}`,
			reply: `{"videos":[{"video":2,"score":0.5}]}`,
			call:  func(c *Client) (any, error) { return c.RankVideos(context.Background(), "goal", 4) },
			want:  &api.RankResponse{Videos: []api.VideoRankJSON{{Video: 2, Score: 0.5}}},
		},
		{
			name: "SimilarVideos", method: http.MethodGet, path: "/api/videos/9/similar",
			reply: `{"videos":[{"video":1,"score":0.75}]}`,
			call:  func(c *Client) (any, error) { return c.SimilarVideos(context.Background(), 9) },
			want:  &api.RankResponse{Videos: []api.VideoRankJSON{{Video: 1, Score: 0.75}}},
		},
		{
			name: "Query", method: http.MethodPost, path: "/api/query",
			body:  `{"pattern":"goal -> foul","top_k":2,"cross_video":true}`,
			reply: `{"pattern":"goal -> foul","expanded_patterns":1,"matches":[],"cost":{"sim_evals":5,"edge_evals":0,"videos_seen":1}}`,
			call: func(c *Client) (any, error) {
				return c.Query(context.Background(), api.QueryRequest{Pattern: "goal -> foul", TopK: 2, CrossVideo: true})
			},
			want: &api.QueryResponse{Pattern: "goal -> foul", Expanded: 1, Matches: []api.MatchJSON{},
				Cost: api.CostJSON{SimEvals: 5, VideosSeen: 1}},
		},
		{
			name: "QueryFederated", method: http.MethodPost, path: "/api/query/federated",
			body:  `{"pattern":"goal","domains":["soccer"],"top_k":3}`,
			reply: `{"pattern":"goal","matches":[{"rank":1,"member":"a","domain":"soccer","score":0.5,"states":[1],"shots":[2],"videos":[3]}],"members":[],"cost":{"sim_evals":0,"edge_evals":0,"videos_seen":0}}`,
			call: func(c *Client) (any, error) {
				return c.QueryFederated(context.Background(), api.FederatedQueryRequest{
					Pattern: "goal", Domains: []string{"soccer"}, TopK: 3})
			},
			want: &api.FederatedQueryResponse{Pattern: "goal", Matches: []api.FederatedMatchJSON{{
				Rank: 1, Member: "a", Domain: "soccer", Score: 0.5,
				States: []int{1}, Shots: []int{2}, Videos: []int{3}}},
				Members: []api.FederatedMemberJSON{}},
		},
		{
			name: "Ingest", method: http.MethodPost, path: "/api/ingest",
			body:  `{"name":"live","seed":7,"events":["goal"]}`,
			reply: `{"video_id":1001,"shots":4,"auto_annotated":1,"fresh_videos":1,"delta_generation":2,"model_generation":1}`,
			call: func(c *Client) (any, error) {
				return c.Ingest(context.Background(), api.IngestRequest{Name: "live", Seed: 7, Events: []string{"goal"}})
			},
			want: &api.IngestResponse{VideoID: 1001, Shots: 4, AutoAnnotated: 1, FreshVideos: 1,
				DeltaGeneration: 2, ModelGeneration: 1},
		},
		{
			name: "Feedback", method: http.MethodPost, path: "/api/feedback",
			body:  `{"states":[4,5]}`,
			reply: `{"pending":2,"retrained":false}`,
			call:  func(c *Client) (any, error) { return c.Feedback(context.Background(), []int{4, 5}) },
			want:  &api.FeedbackResponse{Pending: 2},
		},
		{
			name: "Retrain", method: http.MethodPost, path: "/api/retrain",
			body:  `{}`,
			reply: `{"pending":0,"retrained":true}`,
			call:  func(c *Client) (any, error) { return c.Retrain(context.Background()) },
			want:  &api.FeedbackResponse{Retrained: true},
		},
		{
			name: "MetricsText", method: http.MethodGet, path: "/metrics",
			reply: "hmmm_requests_total 3\n",
			call:  func(c *Client) (any, error) { return c.MetricsText(context.Background()) },
			want:  "hmmm_requests_total 3\n",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method != tc.method || r.URL.Path != tc.path {
					t.Errorf("requested %s %s, want %s %s", r.Method, r.URL.Path, tc.method, tc.path)
				}
				b, err := io.ReadAll(r.Body)
				if err != nil {
					t.Error(err)
				}
				switch {
				case tc.body == "" && len(b) != 0:
					t.Errorf("sent body %s, want none", b)
				case tc.body != "":
					if !sameJSON(t, b, []byte(tc.body)) {
						t.Errorf("sent body %s, want %s", b, tc.body)
					}
					if ct := r.Header.Get("Content-Type"); ct != "application/json" {
						t.Errorf("Content-Type = %q", ct)
					}
				}
				_, _ = w.Write([]byte(tc.reply))
			}))
			defer ts.Close()
			got, err := tc.call(New(ts.URL, nil))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("decoded %#v, want %#v", got, tc.want)
			}
		})
	}
}

// sameJSON reports whether a and b encode the same JSON value.
func sameJSON(t *testing.T, a, b []byte) bool {
	t.Helper()
	var va, vb any
	if err := json.Unmarshal(a, &va); err != nil {
		t.Errorf("body %s is not JSON: %v", a, err)
		return false
	}
	if err := json.Unmarshal(b, &vb); err != nil {
		t.Fatal(err)
	}
	return reflect.DeepEqual(va, vb)
}

// TestMetricsTextErrorStatus checks that MetricsText, which reads its
// body raw rather than through the JSON path, still turns a non-2xx
// reply into an *APIError carrying the status and the trimmed body.
func TestMetricsTextErrorStatus(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "metrics disabled", http.StatusNotFound)
	}))
	defer ts.Close()
	_, err := New(ts.URL, nil).MetricsText(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || apiErr.Message != "metrics disabled" {
		t.Fatalf("err = %v, want a 404 APIError with the body as message", err)
	}
}
