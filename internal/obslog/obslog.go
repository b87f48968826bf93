// Package obslog is the serving stack's shared structured-logging setup:
// one place that builds log/slog loggers (text or JSON handlers, leveled),
// and threads the request identifier through context so every line a
// handler emits carries it.
//
// The simulator core stays logging-free; obslog is for the serving plane
// (internal/simsvc, internal/cluster, cmd/doramd, cmd/doramctl).
package obslog

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// Format selects a handler encoding.
type Format string

// Supported encodings.
const (
	FormatText Format = "text"
	FormatJSON Format = "json"
)

// ParseFormat parses a -log-format flag value.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "text":
		return FormatText, nil
	case "json":
		return FormatJSON, nil
	}
	return "", fmt.Errorf("obslog: unknown log format %q (want text or json)", s)
}

// ParseLevel parses a -log-level flag value.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obslog: unknown log level %q (want debug, info, warn or error)", s)
}

// New builds a leveled logger writing to w in the given format. Every
// record passes through the context-ID handler, so lines logged with a
// context carrying a WithRequest ID pick it up as an attribute.
func New(w io.Writer, format Format, level slog.Level) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	if format == FormatJSON {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	return slog.New(&ctxHandler{Handler: h})
}

// Discard returns a logger that drops everything — the nil-safe default
// for library components whose caller wired no logger.
func Discard() *slog.Logger {
	return slog.New(discardHandler{})
}

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// ---- context identifier ----

// requestIDKey keys the request ID in a context.
type requestIDKey struct{}

// WithRequest returns a context carrying an HTTP request ID.
func WithRequest(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestID extracts the request ID threaded by WithRequest ("" if none).
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// ctxHandler decorates records with the request ID found in the logging
// context, so call sites never thread it by hand.
type ctxHandler struct {
	slog.Handler
}

func (h *ctxHandler) Handle(ctx context.Context, r slog.Record) error {
	if id := RequestID(ctx); id != "" {
		r.AddAttrs(slog.String("request_id", id))
	}
	return h.Handler.Handle(ctx, r)
}

func (h *ctxHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &ctxHandler{Handler: h.Handler.WithAttrs(attrs)}
}

func (h *ctxHandler) WithGroup(name string) slog.Handler {
	return &ctxHandler{Handler: h.Handler.WithGroup(name)}
}

// ---- HTTP middleware ----

var reqSeq atomic.Uint64

// HTTPMiddleware assigns each request an ID (threaded through the request
// context for downstream handlers and their logs) and logs one debug line
// per request with method, path, and wall time. A nil logger still assigns
// IDs but logs nothing.
func HTTPMiddleware(l *slog.Logger, next http.Handler) http.Handler {
	if l == nil {
		l = Discard()
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := fmt.Sprintf("r-%08d", reqSeq.Add(1))
		ctx := WithRequest(r.Context(), id)
		start := time.Now()
		next.ServeHTTP(w, r.WithContext(ctx))
		l.DebugContext(ctx, "http request",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Duration("elapsed", time.Since(start)))
	})
}
