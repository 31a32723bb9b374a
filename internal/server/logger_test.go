package server

import (
	"bytes"
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fannr/internal/graph"
)

// TestDefaultLoggerBuildsNoRecord: with no Options.Logger the server's
// logger reports every level disabled, so handleFANN skips the request
// record's attributes altogether — and the slow-query log, which does not
// go through the logger, is fed regardless. (TestStructuredRequestLog
// pins what an enabled logger prints.)
func TestDefaultLoggerBuildsNoRecord(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 120, Seed: 8, Name: "quiet"})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelError} {
		if srv.logger.Enabled(context.Background(), level) {
			t.Fatalf("default logger enabled at %v", level)
		}
	}
	if !slog.New(slog.NewJSONHandler(&bytes.Buffer{}, nil)).Enabled(context.Background(), slog.LevelInfo) {
		t.Fatal("a -log style handler must stay enabled at Info")
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/fann",
		strings.NewReader(`{"p":[1,2,3],"q":[5,6],"phi":0.5,"engine":"INE"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "quiet-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	slow, err := http.Get(ts.URL + "/debug/slow?id=quiet-1")
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Body.Close()
	if slow.StatusCode != http.StatusOK {
		t.Fatalf("/debug/slow?id=quiet-1: status %d — the slow log was not fed", slow.StatusCode)
	}
}
