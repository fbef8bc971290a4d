package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestAPIErrorRendering(t *testing.T) {
	e := &APIError{Status: 418, Message: "teapot"}
	if !strings.Contains(e.Error(), "418") || !strings.Contains(e.Error(), "teapot") {
		t.Errorf("APIError rendering: %q", e.Error())
	}
}

func TestNonJSONErrorBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "plain text failure", http.StatusBadGateway)
	}))
	defer ts.Close()
	_, err := New(ts.URL, nil).HealthDetail(context.Background())
	apiErr, ok := err.(*APIError)
	if !ok {
		t.Fatalf("err = %T %v, want APIError", err, err)
	}
	if apiErr.Status != http.StatusBadGateway {
		t.Errorf("status = %d", apiErr.Status)
	}
}

func TestJSONErrorBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		_, _ = w.Write([]byte(`{"error": "bad pattern"}`))
	}))
	defer ts.Close()
	_, err := New(ts.URL, nil).HealthDetail(context.Background())
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.Message != "bad pattern" {
		t.Errorf("err = %v, want decoded message", err)
	}
}

func TestConnectionRefused(t *testing.T) {
	// A closed server yields a transport error, not an APIError.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := ts.URL
	ts.Close()
	if _, err := New(url, nil).HealthDetail(context.Background()); err == nil {
		t.Error("closed server accepted")
	}
}

func TestMalformedResponseBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("{truncated"))
	}))
	defer ts.Close()
	if _, err := New(ts.URL, nil).Stats(context.Background()); err == nil {
		t.Error("malformed body accepted")
	}
}

func TestContextCancellation(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := New(ts.URL, nil).HealthDetail(ctx); err == nil {
		t.Error("cancelled context accepted")
	}
}

func TestBaseURLTrailingSlashTrimmed(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.URL.Path, "//") {
			t.Errorf("double slash in path %q", r.URL.Path)
		}
		_, _ = w.Write([]byte(`{"status":"ok"}`))
	}))
	defer ts.Close()
	if _, err := New(ts.URL+"/", nil).HealthDetail(context.Background()); err != nil {
		t.Fatal(err)
	}
}
