package obslog

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestParseLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug,
		"":      slog.LevelInfo,
		"info":  slog.LevelInfo,
		"WARN":  slog.LevelWarn,
		"error": slog.LevelError,
	}
	for in, want := range cases {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Errorf("ParseLevel accepted an unknown level")
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Errorf("ParseFormat accepted an unknown format")
	}
}

// TestContextIDs checks a WithRequest ID surfaces as an attribute on both
// handler encodings.
func TestContextIDs(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, FormatJSON, slog.LevelInfo)
	ctx := WithRequest(context.Background(), "r-1")
	l.InfoContext(ctx, "hello", slog.Int("n", 3))

	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("log line is not JSON: %v (%q)", err, buf.String())
	}
	if rec["request_id"] != "r-1" {
		t.Errorf("record %v missing the request ID", rec)
	}

	buf.Reset()
	lt := New(&buf, FormatText, slog.LevelInfo)
	lt.InfoContext(ctx, "hello")
	if !strings.Contains(buf.String(), "request_id=r-1") {
		t.Errorf("text record %q missing the request ID", buf.String())
	}
}

// TestLevelFilter checks debug records are dropped at info level.
func TestLevelFilter(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, FormatText, slog.LevelInfo)
	l.Debug("invisible")
	if buf.Len() != 0 {
		t.Errorf("debug record leaked through info level: %q", buf.String())
	}
	l.Warn("visible")
	if buf.Len() == 0 {
		t.Errorf("warn record dropped at info level")
	}
	if Discard().Enabled(context.Background(), slog.LevelError) {
		t.Errorf("Discard logger enabled")
	}
}

// TestHTTPMiddleware checks request IDs are assigned, threaded through the
// request context, and logged at debug.
func TestHTTPMiddleware(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, FormatText, slog.LevelDebug)
	var seen string
	h := HTTPMiddleware(l, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = RequestID(r.Context())
	}))
	req := httptest.NewRequest("GET", "/varz", nil)
	h.ServeHTTP(httptest.NewRecorder(), req)
	if seen == "" {
		t.Fatalf("handler saw no request ID")
	}
	if !strings.Contains(buf.String(), "request_id="+seen) || !strings.Contains(buf.String(), "path=/varz") {
		t.Errorf("request log %q missing id %q or path", buf.String(), seen)
	}
}
