package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"io"
	"log/slog"
	"os"
	"strings"
)

// Per-message tracing: a trace ID is minted when a message enters the
// system (HTTP submit, facade Submit, or accepted from the client via
// X-Request-Id), travels through context.Context while the message is
// in flight, and is persisted in the mq envelope so it survives the
// queue hop and WAL replay. Every structured log line about the
// message carries the same ID, which is what makes a single tweet's
// path through dispatcher → worker → integration lane reconstructable
// from logs at traffic scale.

// traceKey is the context key of a message's identity. Its value is
// either the bare trace ID (a string) or, while a span is recording,
// the current *Span, whose trace carries the ID — one value, so the
// ID a log line prints and the trace a span records under never
// disagree.
type traceKey struct{}

// NewTraceID returns a fresh 16-hex-digit random trace ID.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to a
		// constant rather than panicking on a diagnostics feature.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// WithTrace returns ctx carrying the given trace ID. Empty IDs are not
// stored. A recording span of another trace is dropped: the next span
// roots id's own trace instead of recording under a foreign ID.
func WithTrace(ctx context.Context, id string) context.Context {
	if id == "" || Trace(ctx) == id {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, id)
}

// Trace returns the trace ID carried by ctx, or "".
func Trace(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	switch v := ctx.Value(traceKey{}).(type) {
	case *Span:
		return v.t.id
	case string:
		return v
	}
	return ""
}

// EnsureTrace returns ctx guaranteed to carry a trace ID, minting one
// if absent, plus the ID.
func EnsureTrace(ctx context.Context) (context.Context, string) {
	if id := Trace(ctx); id != "" {
		return ctx, id
	}
	id := NewTraceID()
	return WithTrace(ctx, id), id
}

// NewLogger builds a slog.Logger writing to w per the -log-format
// ("text" or "json") and -log-level ("debug", "info", "warn", "error")
// daemon flags. Unknown values fall back to text/info rather than
// failing startup over a logging knob.
func NewLogger(w io.Writer, format, level string) *slog.Logger {
	if w == nil {
		w = os.Stderr
	}
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "warn", "warning":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		lvl = slog.LevelInfo
	}
	opts := &slog.HandlerOptions{Level: lvl}
	if strings.EqualFold(format, "json") {
		return slog.New(slog.NewJSONHandler(w, opts))
	}
	return slog.New(slog.NewTextHandler(w, opts))
}
