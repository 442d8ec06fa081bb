package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testHeader = "test-log v1\n"

// collect opens the log at path, returning it and its records as strings.
func collect(t *testing.T, path, header string) (*Log, []string) {
	t.Helper()
	var recs []string
	l, err := Open(path, header, func(r []byte) error {
		recs = append(recs, string(r))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, recs
}

// TestOpenAppendReopen: an empty file gets its header, records appended
// in one group commit replay in order, a torn tail is cut so the next
// append starts a fresh line, and Append after Close fails.
func TestOpenAppendReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l, recs := collect(t, path, testHeader)
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %q", recs)
	}
	if err := l.Append([]byte("a"), []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("c")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("d")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close = %v", err)
	}

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("\ntorn"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l, recs = collect(t, path, testHeader)
	if strings.Join(recs, ",") != "a,b,c" {
		t.Fatalf("replayed %q", recs)
	}
	if err := l.Append([]byte("d")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := testHeader + "a\nb\nc\n\nd\n"; string(got) != want {
		t.Fatalf("log bytes %q, want %q", got, want)
	}
}

// TestOpenRefusesForeignFile: a non-empty file without the header is
// an error, and is left untouched rather than truncated.
func TestOpenRefusesForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	if err := os.WriteFile(path, []byte("something else\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, testHeader, func([]byte) error { return nil }); err == nil {
		t.Fatal("opened a file without the header")
	}
	if got, _ := os.ReadFile(path); string(got) != "something else\n" {
		t.Fatalf("refused file rewritten to %q", got)
	}
}

// TestScanHasNoLineCap: a record far longer than the read buffer replays
// whole, and the records around it keep their places.
func TestScanHasNoLineCap(t *testing.T) {
	big := strings.Repeat("x", 5<<20)
	data := testHeader + "a\n" + big + "\nb\n"
	var recs []string
	end, err := Scan(strings.NewReader(data), testHeader, func(r []byte) error {
		recs = append(recs, string(r))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if end != int64(len(data)) || len(recs) != 3 || recs[0] != "a" || recs[1] != big || recs[2] != "b" {
		t.Fatalf("end %d of %d, %d records", end, len(data), len(recs))
	}
}

// TestScanStopsAtRejectedRecord: replay ends before the first record the
// decoder rejects, even when valid records follow it.
func TestScanStopsAtRejectedRecord(t *testing.T) {
	data := "ok\nbad\nok\n"
	n := 0
	end, err := Scan(bytes.NewReader([]byte(data)), "", func(r []byte) error {
		if string(r) == "bad" {
			return errors.New("bad record")
		}
		n++
		return nil
	})
	if err != nil || end != 3 || n != 1 {
		t.Fatalf("end %d, %d records, err %v", end, n, err)
	}
}
