package persist

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// blobStore is a minimal Snapshotter: its state is one string, its
// snapshot format self-identifies with a prefix, and Restore — like the
// real store — validates the whole image before mutating anything.
type blobStore struct {
	state string
}

func (b *blobStore) Snapshot(w io.Writer) error {
	_, err := fmt.Fprintf(w, "blob:%s", b.state)
	return err
}

func (b *blobStore) Restore(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	s := string(data)
	if !strings.HasPrefix(s, "blob:") {
		return fmt.Errorf("blobStore: not a blob snapshot")
	}
	b.state = strings.TrimPrefix(s, "blob:")
	return nil
}

func newTestManager(t *testing.T, dir string, opts ...Option) *Manager {
	t.Helper()
	m, err := NewManager(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCheckpointRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, dir)

	info, err := m.CheckpointContext(context.Background(), &blobStore{state: "v1"}, 42)
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 1 || info.LSN != 42 {
		t.Fatalf("info = %+v, want seq 1 lsn 42", info)
	}
	if st := m.Stats(); st.Count != 1 || st.Last == nil || st.Last.Seq != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// A fresh manager (a restarted process) recovers the image and the
	// LSN.
	m2 := newTestManager(t, dir)
	var got blobStore
	rec, err := m2.Recover(&got)
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil {
		t.Fatal("recovered nothing")
	}
	if got.state != "v1" || rec.LSN != 42 || rec.Seq != 1 {
		t.Fatalf("recovered %q, info %+v", got.state, rec)
	}
	// Sequence numbering resumes past the recovered checkpoint.
	info2, err := m2.CheckpointContext(context.Background(), &blobStore{state: "v2"}, 99)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Seq != 2 {
		t.Fatalf("next seq = %d, want 2", info2.Seq)
	}
}

func TestRecoverEmptyDirectory(t *testing.T) {
	m := newTestManager(t, t.TempDir())
	var got blobStore
	rec, err := m.Recover(&got)
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil {
		t.Fatalf("recovered %+v from empty directory", rec)
	}
}

// TestRecoverSkipsCorruptNewest corrupts the newest checkpoint in three
// different ways; recovery must fall back to the older valid one each
// time without touching the store with corrupt bytes.
func TestRecoverSkipsCorruptNewest(t *testing.T) {
	corruptions := []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{"truncated payload", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)-4], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"garbage payload", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte(fileMagic+" seq=2 lsn=7\ngarbage"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bad header", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("not a checkpoint\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			m := newTestManager(t, dir)
			if _, err := m.CheckpointContext(context.Background(), &blobStore{state: "old"}, 10); err != nil {
				t.Fatal(err)
			}
			newest, err := m.CheckpointContext(context.Background(), &blobStore{state: "new"}, 20)
			if err != nil {
				t.Fatal(err)
			}
			tc.corrupt(t, filepath.Join(dir, newest.File))

			m2 := newTestManager(t, dir)
			got := blobStore{state: "live"}
			rec, err := m2.Recover(&got)
			if err != nil {
				t.Fatal(err)
			}
			if rec == nil || rec.Seq != 1 {
				t.Fatalf("recovered %+v, want seq 1", rec)
			}
			if got.state != "old" || rec.LSN != 10 {
				t.Fatalf("state %q lsn %d, want old/10", got.state, rec.LSN)
			}
		})
	}
}

// TestRecoverScanWithoutManifest: a deleted manifest must not orphan
// the checkpoints — the directory scan finds the newest.
func TestRecoverScanWithoutManifest(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, dir)
	if _, err := m.CheckpointContext(context.Background(), &blobStore{state: "v1"}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CheckpointContext(context.Background(), &blobStore{state: "v2"}, 2); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}

	m2 := newTestManager(t, dir)
	var got blobStore
	rec, err := m2.Recover(&got)
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || rec.Seq != 2 || got.state != "v2" {
		t.Fatalf("recovered %+v state %q, want seq 2 / v2", rec, got.state)
	}
}

// TestRecoverManifestMismatch: a manifest whose fingerprint no longer
// matches its file (bit rot) must not be trusted; the scan still
// recovers whatever validates.
func TestRecoverManifestMismatch(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, dir)
	if _, err := m.CheckpointContext(context.Background(), &blobStore{state: "v1"}, 5); err != nil {
		t.Fatal(err)
	}
	info, err := m.CheckpointContext(context.Background(), &blobStore{state: "v2"}, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Flip payload bytes without changing the size: CRC check must
	// catch it, and the scan fallback must reject it too (payload no
	// longer parses), landing on checkpoint 1.
	path := filepath.Join(dir, info.File)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(data[len(data)-4:], "XXXX")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := newTestManager(t, dir)
	var got blobStore
	rec, err := m2.Recover(&got)
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || rec.Seq != 1 || got.state != "v1" {
		t.Fatalf("recovered %+v state %q, want seq 1 / v1", rec, got.state)
	}
}

// Corrupting the blob payload while keeping a valid header must fail
// blobStore's own validation — guard that the fake actually validates,
// since TestRecoverManifestMismatch depends on it.
func TestBlobStoreValidates(t *testing.T) {
	b := blobStore{state: "live"}
	if err := b.Restore(strings.NewReader("blobXXXX")); err == nil {
		t.Fatal("restore accepted garbage")
	}
	if b.state != "live" {
		t.Fatalf("failed restore mutated state to %q", b.state)
	}
}

func TestRetentionPrunesOldCheckpoints(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, dir, WithRetain(2))
	for i := 1; i <= 5; i++ {
		if _, err := m.CheckpointContext(context.Background(), &blobStore{state: fmt.Sprintf("v%d", i)}, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	seqs := m.listSeqs()
	if len(seqs) != 2 {
		t.Fatalf("%d checkpoint files retained, want 2 (%v)", len(seqs), seqs)
	}
	for _, seq := range seqs {
		if seq != 4 && seq != 5 {
			t.Fatalf("retained seq %d, want only 4 and 5", seq)
		}
	}
	var got blobStore
	rec, err := newTestManager(t, dir).Recover(&got)
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || got.state != "v5" {
		t.Fatalf("recovered %+v %q, want v5", rec, got.state)
	}
}

// TestStaleTempCleaned: an interrupted write's temp file is invisible
// to recovery and removed by the next successful checkpoint.
func TestStaleTempCleaned(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, filePrefix+"0000000000000009"+fileSuffix+tmpSuffix)
	if err := os.WriteFile(stale, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, dir)
	var got blobStore
	if rec, err := m.Recover(&got); err != nil || rec != nil {
		t.Fatalf("recover = %+v, %v; want nothing", rec, err)
	}
	if _, err := m.CheckpointContext(context.Background(), &blobStore{state: "v1"}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp survived the checkpoint: %v", err)
	}
}

func TestClockStampsCreated(t *testing.T) {
	now := time.Date(2011, 4, 1, 9, 0, 0, 0, time.UTC)
	m := newTestManager(t, t.TempDir(), WithClock(func() time.Time { return now }))
	info, err := m.CheckpointContext(context.Background(), &blobStore{state: "v"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Created.Equal(now) {
		t.Fatalf("created = %v, want %v", info.Created, now)
	}
}
