// Package persist is the durability subsystem: a checkpoint manager
// that writes the probabilistic store's snapshot to an atomic, fsynced,
// rotated file set under a data directory, and restores the newest
// valid checkpoint at boot. Together with the message queue's
// write-ahead log it closes the paper's deployment gap — a long-running
// service accumulating crowd knowledge must survive a restart:
//
//   - Checkpoint writes temp → fsync → rename, then updates a MANIFEST
//     (itself written atomically) naming the latest valid checkpoint,
//     then prunes all but the newest N checkpoints. A crash mid-write
//     leaves only a *.tmp file that recovery ignores.
//   - Recover restores the newest checkpoint that validates: the
//     manifest's entry is tried first (size and CRC verified before a
//     byte reaches the store), then a directory scan newest-to-oldest
//     backstops a missing or corrupt manifest. Corrupt or partial
//     checkpoints are logged and skipped, never trusted.
//
// Each checkpoint records the queue WAL's log sequence number captured
// just before the snapshot was taken, so recovery can replay exactly
// the messages acknowledged after the image — re-integration is safe
// because integration's find-duplicate-then-merge folds a replayed
// message into its existing record instead of duplicating it.
package persist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Checkpoint metric families: how long images take, how big they are,
// and how often they succeed or fail — the running system's view of the
// durability loop EXPERIMENTS only measured offline.
var (
	mCheckpointSeconds = obs.Default().Histogram("neogeo_checkpoint_seconds",
		"Checkpoint wall time, snapshot through durable publish.", nil).With()
	mCheckpointBytes = obs.Default().Histogram("neogeo_checkpoint_bytes",
		"Published checkpoint image size in bytes.",
		obs.ExpBuckets(1024, 4, 10)).With()
	mCheckpointTotal = obs.Default().Counter("neogeo_checkpoint_total",
		"Checkpoint attempts by result.", "result")
	checkpointOK  = mCheckpointTotal.With("ok")
	checkpointErr = mCheckpointTotal.With("error")
)

// Snapshotter is the slice of the store the manager persists;
// *shard.Store (and *xmldb.DB) satisfy it.
type Snapshotter interface {
	Snapshot(w io.Writer) error
	Restore(r io.Reader) error
}

// fileMagic heads every checkpoint file; the sequence number and the
// queue-WAL LSN follow on the same line so recovery can order files and
// resume the log without a manifest.
const fileMagic = "neogeo-checkpoint v1"

// manifestName is the pointer file naming the latest valid checkpoint.
const manifestName = "MANIFEST"

// filePrefix/fileSuffix frame checkpoint file names:
// checkpoint-<seq 16 digits>.ckpt.
const (
	filePrefix = "checkpoint-"
	fileSuffix = ".ckpt"
	tmpSuffix  = ".tmp"
)

// Info describes one checkpoint.
type Info struct {
	// Seq is the checkpoint's monotonic sequence number.
	Seq uint64 `json:"seq"`
	// LSN is the queue WAL's log sequence number captured before the
	// snapshot: messages acknowledged after it are not guaranteed to be
	// in the image and must be re-integrated on recovery.
	LSN int64 `json:"lsn"`
	// File is the checkpoint's file name within the data directory.
	File string `json:"file"`
	// Size and CRC fingerprint the complete file; recovery refuses a
	// manifest entry whose file no longer matches.
	Size int64  `json:"size"`
	CRC  uint32 `json:"crc32"`
	// Created is the checkpoint's wall-clock write time.
	Created time.Time `json:"created"`
}

// Stats is the manager's health snapshot, surfaced by the serving
// layer's /v1/stats and /healthz.
type Stats struct {
	// Count is the number of checkpoints written by this manager (this
	// process; recovered checkpoints do not count).
	Count int
	// Last describes the newest valid checkpoint — written or
	// recovered — nil when none exists.
	Last *Info
	// LastError is the most recent Checkpoint attempt's failure message,
	// cleared by the next success — what /healthz's checkpoint_stale
	// signal watches.
	LastError string
}

// Manager writes and recovers checkpoints under one data directory.
// All methods are safe for concurrent use; checkpoints serialize.
type Manager struct {
	dir    string
	retain int
	clock  func() time.Time

	mu      sync.Mutex
	seq     uint64 // highest sequence number seen or written
	count   int    // checkpoints written this process
	last    *Info  // newest valid checkpoint
	lastErr string // most recent Checkpoint failure, "" after a success
}

// Option configures a Manager.
type Option func(*Manager)

// WithRetain keeps the newest n checkpoint files after each write
// (default 3, minimum 1 — the newest is never pruned).
func WithRetain(n int) Option {
	return func(m *Manager) { m.retain = n }
}

// WithClock overrides the time source (tests).
func WithClock(clock func() time.Time) Option {
	return func(m *Manager) { m.clock = clock }
}

// NewManager opens (creating if needed) the data directory and resumes
// sequence numbering from the checkpoints already in it, so a restarted
// process never reuses a sequence number.
func NewManager(dir string, opts ...Option) (*Manager, error) {
	if dir == "" {
		return nil, fmt.Errorf("persist: empty data directory")
	}
	m := &Manager{dir: dir, retain: 3, clock: time.Now}
	for _, o := range opts {
		o(m)
	}
	if m.retain < 1 {
		m.retain = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: creating data directory: %w", err)
	}
	for _, seq := range m.listSeqs() {
		if seq > m.seq {
			m.seq = seq
		}
	}
	return m, nil
}

// Stats returns the manager's health snapshot.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Stats{Count: m.count, LastError: m.lastErr}
	if m.last != nil {
		info := *m.last
		st.Last = &info
	}
	return st
}

// spanCheckpoint names the durability span (a bounded constant).
const spanCheckpoint = "checkpoint"

// CheckpointContext writes one checkpoint of s, tagged with the queue
// WAL's lsn, and returns its Info. The write is atomic: the snapshot lands
// in a temp file that is fsynced and renamed into place before the
// manifest (also atomically replaced) points at it, so a crash at any
// instant leaves the previous checkpoint authoritative. Old checkpoints
// beyond the retention count are pruned afterwards. The write appears as
// a span on the request or background timeline ctx carries, annotated
// with the image size and WAL position.
func (m *Manager) CheckpointContext(ctx context.Context, s Snapshotter, lsn int64) (Info, error) {
	_, sp := obs.StartSpan(ctx, spanCheckpoint)
	start := time.Now()
	info, err := m.checkpoint(s, lsn)
	mCheckpointSeconds.Since(start)
	sp.SetAttr("lsn", strconv.FormatInt(lsn, 10))
	if err == nil {
		sp.SetAttr("bytes", strconv.FormatInt(info.Size, 10))
	}
	sp.SetError(err)
	sp.End()
	m.mu.Lock()
	if err != nil {
		checkpointErr.Inc()
		m.lastErr = err.Error()
	} else {
		checkpointOK.Inc()
		mCheckpointBytes.Observe(float64(info.Size))
		m.lastErr = ""
	}
	m.mu.Unlock()
	return info, err
}

// checkpoint is Checkpoint's locked body; the wrapper records metrics
// and the last-attempt error outside the critical section.
func (m *Manager) checkpoint(s Snapshotter, lsn int64) (Info, error) {
	m.mu.Lock()
	defer m.mu.Unlock()

	seq := m.seq + 1
	name := fmt.Sprintf("%s%016d%s", filePrefix, seq, fileSuffix)
	final := filepath.Join(m.dir, name)
	tmp := final + tmpSuffix

	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return Info{}, fmt.Errorf("persist: checkpoint %d: %w", seq, err)
	}
	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(f, crc), 1<<20)
	if _, err := fmt.Fprintf(bw, "%s seq=%d lsn=%d\n", fileMagic, seq, lsn); err != nil {
		f.Close()
		os.Remove(tmp)
		return Info{}, fmt.Errorf("persist: checkpoint %d: header: %w", seq, err)
	}
	if err := s.Snapshot(bw); err != nil {
		f.Close()
		os.Remove(tmp)
		return Info{}, fmt.Errorf("persist: checkpoint %d: snapshot: %w", seq, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return Info{}, fmt.Errorf("persist: checkpoint %d: %w", seq, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return Info{}, fmt.Errorf("persist: checkpoint %d: sync: %w", seq, err)
	}
	size, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return Info{}, fmt.Errorf("persist: checkpoint %d: %w", seq, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return Info{}, fmt.Errorf("persist: checkpoint %d: close: %w", seq, err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return Info{}, fmt.Errorf("persist: checkpoint %d: publish: %w", seq, err)
	}
	if err := m.syncDir(); err != nil {
		return Info{}, fmt.Errorf("persist: checkpoint %d: %w", seq, err)
	}

	info := Info{
		Seq:     seq,
		LSN:     lsn,
		File:    name,
		Size:    size,
		CRC:     crc.Sum32(),
		Created: m.clock(),
	}
	if err := m.writeManifest(info); err != nil {
		// The checkpoint file itself is durable and the directory scan
		// will find it; only the fast path is degraded.
		slog.Warn("persist: manifest update failed (checkpoint still recoverable by scan)", "seq", seq, "err", err)
	}
	m.seq = seq
	m.count++
	m.last = &info
	m.prune()
	return info, nil
}

// Recover restores the newest valid checkpoint into s and returns its
// Info, or nil when the directory holds no usable checkpoint. The
// manifest's entry is tried first, fingerprint-verified; on any
// mismatch recovery falls back to scanning checkpoint files newest to
// oldest, skipping (and logging) everything that fails validation —
// the store is only modified by a checkpoint that restores cleanly.
func (m *Manager) Recover(s Snapshotter) (*Info, error) {
	m.mu.Lock()
	defer m.mu.Unlock()

	tried := make(map[string]bool)
	if info, err := m.readManifest(); err == nil && info != nil {
		tried[info.File] = true
		if err := m.restoreFile(s, true, info); err != nil {
			slog.Warn("persist: manifest checkpoint unusable, falling back to scan", "file", info.File, "err", err)
		} else {
			m.adopt(info)
			return info, nil
		}
	} else if err != nil {
		slog.Warn("persist: unreadable manifest, falling back to scan", "err", err)
	}

	seqs := m.listSeqs()
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	for _, seq := range seqs {
		name := fmt.Sprintf("%s%016d%s", filePrefix, seq, fileSuffix)
		if tried[name] {
			continue
		}
		info := &Info{File: name}
		if err := m.restoreFile(s, false, info); err != nil {
			slog.Warn("persist: skipping corrupt checkpoint", "file", name, "err", err)
			continue
		}
		m.adopt(info)
		return info, nil
	}
	return nil, nil
}

// adopt records a recovered checkpoint as the manager's newest.
func (m *Manager) adopt(info *Info) {
	if info.Seq > m.seq {
		m.seq = info.Seq
	}
	m.last = info
}

// restoreFile parses, verifies and restores the checkpoint file info
// names, filling in info's seq, lsn and (when scanning) fingerprint
// from the file. When verify is true the file must match info's size
// and CRC before a byte reaches the store; the verified bytes are then
// restored from memory rather than read a second time.
func (m *Manager) restoreFile(s Snapshotter, verify bool, info *Info) error {
	path := filepath.Join(m.dir, info.File)
	var src io.Reader
	if verify {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if int64(len(data)) != info.Size {
			return fmt.Errorf("size %d, manifest says %d", len(data), info.Size)
		}
		if got := crc32.ChecksumIEEE(data); got != info.CRC {
			return fmt.Errorf("crc %08x, manifest says %08x", got, info.CRC)
		}
		src = bytes.NewReader(data)
	} else {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		// Fingerprint the scanned file so the adopted Info is complete;
		// the file's mtime stands in for the write time the missing
		// manifest would have recorded.
		crc := crc32.NewIEEE()
		n, err := io.Copy(crc, f)
		if err != nil {
			return err
		}
		info.Size, info.CRC = n, crc.Sum32()
		if fi, err := f.Stat(); err == nil {
			info.Created = fi.ModTime()
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return err
		}
		src = f
	}
	br := bufio.NewReaderSize(src, 1<<20)
	header, err := br.ReadString('\n')
	if err != nil {
		return fmt.Errorf("reading header: %w", err)
	}
	var hseq uint64
	var hlsn int64
	if _, err := fmt.Sscanf(header, fileMagic+" seq=%d lsn=%d\n", &hseq, &hlsn); err != nil {
		return fmt.Errorf("bad header %q", strings.TrimSpace(header))
	}
	info.Seq, info.LSN = hseq, hlsn
	// The store validates the whole image before replacing anything, so
	// a corrupt payload leaves it untouched and the caller can try an
	// older checkpoint.
	if err := s.Restore(br); err != nil {
		return err
	}
	return nil
}

// writeManifest atomically replaces the manifest with one naming info.
func (m *Manager) writeManifest(info Info) error {
	data, err := json.Marshal(info)
	if err != nil {
		return err
	}
	path := filepath.Join(m.dir, manifestName)
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return m.syncDir()
}

// readManifest returns the manifest's entry, nil when no manifest
// exists yet.
func (m *Manager) readManifest() (*Info, error) {
	data, err := os.ReadFile(filepath.Join(m.dir, manifestName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var info Info
	if err := json.Unmarshal(data, &info); err != nil {
		return nil, fmt.Errorf("persist: corrupt manifest: %w", err)
	}
	if info.File == "" {
		return nil, fmt.Errorf("persist: manifest names no file")
	}
	return &info, nil
}

// listSeqs returns the sequence numbers of every well-named checkpoint
// file in the directory, unordered.
func (m *Manager) listSeqs() []uint64 {
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		return nil
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, filePrefix) || !strings.HasSuffix(name, fileSuffix) {
			continue
		}
		var seq uint64
		if _, err := fmt.Sscanf(name, filePrefix+"%d"+fileSuffix, &seq); err != nil {
			continue
		}
		seqs = append(seqs, seq)
	}
	return seqs
}

// prune removes checkpoint files beyond the retention count (newest
// kept) and any stale temp files from interrupted writes.
func (m *Manager) prune() {
	seqs := m.listSeqs()
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	for i, seq := range seqs {
		if i < m.retain {
			continue
		}
		name := fmt.Sprintf("%s%016d%s", filePrefix, seq, fileSuffix)
		if err := os.Remove(filepath.Join(m.dir, name)); err != nil {
			slog.Warn("persist: pruning failed", "file", name, "err", err)
		}
	}
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), tmpSuffix) {
			if err := os.Remove(filepath.Join(m.dir, e.Name())); err != nil {
				slog.Warn("persist: removing stale temp failed", "file", e.Name(), "err", err)
			}
		}
	}
}

// syncDir fsyncs the data directory so renames are durable.
func (m *Manager) syncDir() error {
	d, err := os.Open(m.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
