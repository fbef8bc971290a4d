// Package client is the Go client for the HMMM retrieval API served by
// package server. The CLI (cmd/hmmmctl), the examples, and the end-to-end
// tests all talk to the server through it.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"github.com/videodb/hmmm/internal/api"
)

// Client talks to one HMMM retrieval server.
type Client struct {
	base string
	http *http.Client
}

// New returns a client for the server at baseURL (e.g.
// "http://localhost:8077"). A nil httpClient selects a default with a
// 30-second timeout.
func New(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 30 * time.Second}
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), http: httpClient}
}

// HealthDetail fetches the full liveness + readiness report. A draining
// server answers 503, which surfaces here as an *APIError.
func (c *Client) HealthDetail(ctx context.Context) (*api.HealthResponse, error) {
	var out api.HealthResponse
	if err := c.do(ctx, http.MethodGet, "/api/health", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats fetches model and feedback-log statistics.
func (c *Client) Stats(ctx context.Context) (*api.StatsResponse, error) {
	var out api.StatsResponse
	if err := c.do(ctx, http.MethodGet, "/api/stats", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Events lists the serving model's event taxonomy.
func (c *Client) Events(ctx context.Context) ([]string, error) {
	_, events, err := c.EventsDomain(ctx)
	return events, err
}

// EventsDomain lists the event taxonomy along with the name of the
// domain it belongs to.
func (c *Client) EventsDomain(ctx context.Context) (string, []string, error) {
	var out struct {
		Domain string   `json:"domain"`
		Events []string `json:"events"`
	}
	if err := c.do(ctx, http.MethodGet, "/api/events", nil, &out); err != nil {
		return "", nil, err
	}
	return out.Domain, out.Events, nil
}

// Videos lists the archive's videos.
func (c *Client) Videos(ctx context.Context) ([]api.VideoJSON, error) {
	var out map[string][]api.VideoJSON
	if err := c.do(ctx, http.MethodGet, "/api/videos", nil, &out); err != nil {
		return nil, err
	}
	return out["videos"], nil
}

// State fetches the detail of one model state by global index.
func (c *Client) State(ctx context.Context, id int) (*api.ShotResponse, error) {
	var out api.ShotResponse
	if err := c.do(ctx, http.MethodGet, fmt.Sprintf("/api/states/%d", id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Parse validates an MATN query text and returns its network rendering.
func (c *Client) Parse(ctx context.Context, pattern string) (*api.ParseResponse, error) {
	var out api.ParseResponse
	if err := c.do(ctx, http.MethodPost, "/api/parse", api.QueryRequest{Pattern: pattern}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// RankVideos ranks videos for an MATN pattern via the level-2 matrices.
func (c *Client) RankVideos(ctx context.Context, pattern string, topK int) (*api.RankResponse, error) {
	var out api.RankResponse
	if err := c.do(ctx, http.MethodPost, "/api/videos/rank", api.QueryRequest{Pattern: pattern, TopK: topK}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SimilarVideos ranks videos similar to the given one.
func (c *Client) SimilarVideos(ctx context.Context, videoID int) (*api.RankResponse, error) {
	var out api.RankResponse
	if err := c.do(ctx, http.MethodGet, fmt.Sprintf("/api/videos/%d/similar", videoID), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Query runs an MATN temporal pattern query.
func (c *Client) Query(ctx context.Context, req api.QueryRequest) (*api.QueryResponse, error) {
	var out api.QueryResponse
	if err := c.do(ctx, http.MethodPost, "/api/query", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// QueryFederated executes one MATN pattern across the server's
// federation of per-domain archives and returns the merged ranking.
func (c *Client) QueryFederated(ctx context.Context, req api.FederatedQueryRequest) (*api.FederatedQueryResponse, error) {
	var out api.FederatedQueryResponse
	if err := c.do(ctx, http.MethodPost, "/api/query/federated", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Ingest submits one video for live acceptance into the delta
// sub-model. A nil error means the server journaled the video durably
// and is already serving it.
func (c *Client) Ingest(ctx context.Context, req api.IngestRequest) (*api.IngestResponse, error) {
	var out api.IngestResponse
	if err := c.do(ctx, http.MethodPost, "/api/ingest", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Feedback marks a retrieved pattern positive.
func (c *Client) Feedback(ctx context.Context, states []int) (*api.FeedbackResponse, error) {
	var out api.FeedbackResponse
	if err := c.do(ctx, http.MethodPost, "/api/feedback", api.FeedbackRequest{States: states}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Retrain forces an offline retraining pass from the accumulated feedback.
func (c *Client) Retrain(ctx context.Context) (*api.FeedbackResponse, error) {
	var out api.FeedbackResponse
	if err := c.do(ctx, http.MethodPost, "/api/retrain", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// MetricsText fetches the raw Prometheus text exposition from /metrics.
func (c *Client) MetricsText(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("client: reading metrics: %w", err)
	}
	if resp.StatusCode/100 != 2 {
		return "", &APIError{Status: resp.StatusCode, Message: strings.TrimSpace(string(body))}
	}
	return string(body), nil
}

// APIError is a non-2xx response from the server.
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: server returned %d: %s", e.Status, e.Message)
}

func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
		body = bytes.NewReader(b)
	} else if method == http.MethodPost {
		body = strings.NewReader("{}")
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e api.ErrorResponse
		msg := resp.Status
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			msg = e.Error
		}
		return &APIError{Status: resp.StatusCode, Message: msg}
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decoding response: %w", err)
	}
	return nil
}
