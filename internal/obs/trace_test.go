package obs

import (
	"context"
	"regexp"
	"strings"
	"testing"
)

func TestTraceContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if Trace(ctx) != "" {
		t.Fatal("empty context carries a trace")
	}
	ctx = WithTrace(ctx, "abc123")
	if got := Trace(ctx); got != "abc123" {
		t.Fatalf("Trace = %q, want abc123", got)
	}
	// Empty IDs are not stored; the previous ID stays visible.
	if got := Trace(WithTrace(ctx, "")); got != "abc123" {
		t.Fatalf("empty WithTrace clobbered trace: %q", got)
	}
}

func TestEnsureTrace(t *testing.T) {
	ctx, id := EnsureTrace(context.Background())
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(id) {
		t.Fatalf("minted ID %q is not 16 hex digits", id)
	}
	if Trace(ctx) != id {
		t.Fatal("minted ID not carried by returned context")
	}
	ctx2, id2 := EnsureTrace(ctx)
	if id2 != id || ctx2 != ctx {
		t.Fatal("EnsureTrace re-minted over an existing trace")
	}
}

func TestNewTraceIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := NewTraceID()
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
	}
}

func TestNewLoggerLevels(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b, "text", "warn")
	l.Info("hidden")
	l.Warn("shown")
	out := b.String()
	if strings.Contains(out, "hidden") || !strings.Contains(out, "shown") {
		t.Errorf("level filtering wrong:\n%s", out)
	}

	b.Reset()
	l = NewLogger(&b, "json", "info")
	l.Info("hello", "k", "v")
	if !strings.HasPrefix(strings.TrimSpace(b.String()), "{") {
		t.Errorf("json format not honored:\n%s", b.String())
	}

	// Unknown values fall back instead of failing.
	b.Reset()
	l = NewLogger(&b, "bogus", "bogus")
	l.Info("fallback")
	if !strings.Contains(b.String(), "fallback") {
		t.Errorf("fallback logger dropped info line:\n%s", b.String())
	}
}
