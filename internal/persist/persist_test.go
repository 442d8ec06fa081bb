package persist

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
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

// checkpointBytes is a well-formed v2 checkpoint file carrying payload.
func checkpointBytes(seq uint64, lsn int64, payload string) []byte {
	data := []byte(fmt.Sprintf(headerV2, seq, lsn, 0) + payload)
	return binary.BigEndian.AppendUint32(data, crc32.ChecksumIEEE(data))
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
	if got.state != "v1" {
		t.Fatalf("recovered %q", got.state)
	}
	// The file alone carries everything the writer reported.
	if rec.Seq != info.Seq || rec.LSN != info.LSN || rec.File != info.File ||
		rec.Size != info.Size || rec.CRC != info.CRC || rec.Created != info.Created {
		t.Fatalf("recovered info %+v, checkpoint wrote %+v", *rec, info)
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
			if err := os.WriteFile(path, checkpointBytes(2, 7, "garbage"), 0o644); err != nil {
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

// TestRecoverScanWithoutManifest: recovery needs nothing but the
// checkpoint files. A MANIFEST left by an older version, naming an older
// checkpoint, is ignored, and the newest file restores.
func TestRecoverScanWithoutManifest(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, dir)
	first, err := m.CheckpointContext(context.Background(), &blobStore{state: "v1"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.CheckpointContext(context.Background(), &blobStore{state: "v2"}, 2); err != nil {
		t.Fatal(err)
	}
	stale := fmt.Sprintf(`{"seq":1,"lsn":1,"file":%q,"size":%d,"crc32":%d}`, first.File, first.Size, first.CRC)
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), []byte(stale), 0o644); err != nil {
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

// rot XORs the byte at off (negative: from the end) of the file at path
// with mask, in place, keeping its size.
func rot(t *testing.T, path string, off int, mask byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		off += len(data)
	}
	data[off] ^= mask
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverManifestMismatch: a checkpoint whose image rotted into bytes
// the store would still accept ("blob:v2" → "blob:x2") fails its own
// checksum and is not trusted; recovery lands on checkpoint 1.
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
	rot(t, filepath.Join(dir, info.File), -crcLen-2, 'v'^'x')

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

// TestRecoverRestoresNothingCorrupt: with the older checkpoint's image
// rotted and the newer one's checksum rotted, there is nothing valid to
// restore — and nothing corrupt may restore in its place.
func TestRecoverRestoresNothingCorrupt(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, dir)
	older, err := m.CheckpointContext(context.Background(), &blobStore{state: "v1"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	newer, err := m.CheckpointContext(context.Background(), &blobStore{state: "v2"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	rot(t, filepath.Join(dir, older.File), -crcLen-2, 'v'^'x')
	rot(t, filepath.Join(dir, newer.File), -1, 0xff)

	got := blobStore{state: "live"}
	rec, err := newTestManager(t, dir).Recover(&got)
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil || got.state != "live" {
		t.Fatalf("recovered %+v state %q from corrupt checkpoints", rec, got.state)
	}
}

// TestRecoverReadsV1: a checkpoint in the format written before files
// carried their own checksum restores, its Created taken from the file's
// modification time.
func TestRecoverReadsV1(t *testing.T) {
	dir := t.TempDir()
	data := fmt.Sprintf(headerV1, 3, 9) + "blob:old"
	path := filepath.Join(dir, fileName(3))
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	mtime := time.Date(2011, 4, 1, 9, 0, 0, 0, time.UTC)
	if err := os.Chtimes(path, mtime, mtime); err != nil {
		t.Fatal(err)
	}
	var got blobStore
	rec, err := newTestManager(t, dir).Recover(&got)
	if err != nil {
		t.Fatal(err)
	}
	want := Info{Seq: 3, LSN: 9, File: fileName(3), Size: int64(len(data)), CRC: crc32.ChecksumIEEE([]byte(data))}
	if rec == nil || got.state != "old" || !rec.Created.Equal(mtime) {
		t.Fatalf("recovered %+v state %q", rec, got.state)
	}
	if rec.Created = (time.Time{}); *rec != want {
		t.Fatalf("recovered %+v, want %+v", *rec, want)
	}
}

// Corrupting the blob payload while keeping a valid header must fail
// blobStore's own validation — guard that the fake actually validates,
// since the garbage-payload case of TestRecoverSkipsCorruptNewest depends
// on it.
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
