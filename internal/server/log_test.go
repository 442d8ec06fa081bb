package server

import (
	"bytes"
	"log/slog"
	"testing"
)

// withTestLog routes a server's diagnostics into the test's own log, so
// they show up with the failing test and nowhere else.
func withTestLog(t testing.TB) Option {
	return WithSlog(slog.New(slog.NewTextHandler(tLogWriter{t}, nil)))
}

type tLogWriter struct{ t testing.TB }

func (w tLogWriter) Write(p []byte) (int, error) {
	w.t.Log(string(bytes.TrimRight(p, "\n")))
	return len(p), nil
}
