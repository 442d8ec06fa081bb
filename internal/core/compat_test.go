package core

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestBootsOlderFormatDataDir: a data directory written before checkpoint
// files checked themselves — a v1 checkpoint, the MANIFEST that used to
// name it, a feedback ledger and a queue WAL, built here byte by byte —
// boots with the same store, replays the log and the ledger, and then
// checkpoints and reboots in the current format.
func TestBootsOlderFormatDataDir(t *testing.T) {
	ctx := context.Background()
	reports := []string{
		"wonderful stay at the Axel Hotel in Berlin",
		"lovely rooms at the Royal Gate Hotel in Paris",
	}
	src, err := New(Config{GazetteerNames: 300, GazetteerSeed: 2011, Clock: func() time.Time { return t0 }})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if _, err := src.Ingest(ctx, r, "alice"); err != nil {
			t.Fatal(err)
		}
	}
	hotels := src.Store.Len("Hotels")
	axel := findRecordByHotel(t, src, "Axel Hotel")
	var img bytes.Buffer
	if err := src.Snapshot(&img); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	dataDir, walPath := filepath.Join(dir, "data"), filepath.Join(dir, "queue.wal")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		t.Fatal(err)
	}
	const ckpt = "checkpoint-0000000000000001.ckpt"
	file := append([]byte("neogeo-checkpoint v1 seq=1 lsn=4\n"), img.Bytes()...)
	enq := func(id int, body string) string {
		return fmt.Sprintf(`{"op":"enq","msg":{"ID":%d,"Body":%q,"Source":"alice","Received":"2011-04-01T09:00:00Z","Attempts":0}}`+"\n", id, body)
	}
	files := map[string]string{
		filepath.Join(dataDir, ckpt): string(file),
		filepath.Join(dataDir, "MANIFEST"): fmt.Sprintf(`{"seq":1,"lsn":4,"file":%q,"size":%d,"crc32":%d,"created":"2011-04-01T09:00:00Z"}`+"\n",
			ckpt, len(file), crc32.ChecksumIEEE(file)),
		filepath.Join(dataDir, "feedback.log"): "neogeo-feedback v1\n" +
			fmt.Sprintf(`{"seq":1,"at":"2011-04-01T09:00:00Z","verdict":{"record_id":%d,"kind":"confirm","source":"carol"}}`+"\n", axel),
		// Both reports acknowledged inside the checkpoint's LSN, and one
		// more enqueued after it.
		walPath: enq(1, reports[0]) + enq(2, reports[1]) +
			`{"op":"ack","id":1}` + "\n" + `{"op":"ack","id":2}` + "\n" +
			enq(3, "great breakfast at the Harbour Lodge in Dublin"),
	}
	for path, data := range files {
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Chtimes(filepath.Join(dataDir, ckpt), t0, t0); err != nil {
		t.Fatal(err)
	}

	cfg := Config{GazetteerNames: 300, GazetteerSeed: 2011, DataDir: dataDir, QueueWAL: walPath, Clock: func() time.Time { return t0 }}
	sys, err := New(cfg)
	if err != nil {
		t.Fatalf("boot on the older format: %v", err)
	}
	if got := sys.Store.Len("Hotels"); got != hotels {
		t.Errorf("restored %d hotels, want %d", got, hotels)
	}
	if st := sys.Persist.Stats(); st.Last == nil || st.Last.Seq != 1 || st.Last.LSN != 4 || !st.Last.Created.Equal(t0) {
		t.Errorf("recovered checkpoint %+v, want seq 1, lsn 4, created at the file's mtime", st.Last)
	}
	if got := sys.Queue.Stats(); got.Pending != 1 || got.Acked != 2 {
		t.Errorf("queue after replay = %+v, want 1 pending, 2 acked", got)
	}
	if got := sys.Feedback.Stats().Replayed; got != 1 {
		t.Errorf("ledger replayed %d verdicts, want 1", got)
	}
	if _, err := sys.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	again, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if got := again.Store.Len("Hotels"); got != hotels {
		t.Errorf("after a v2 checkpoint: %d hotels, want %d", got, hotels)
	}
	if st := again.CheckpointStats(); st.LastSeq != 2 {
		t.Errorf("rebooted from checkpoint %d, want 2", st.LastSeq)
	}
}
