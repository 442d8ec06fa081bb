// Package persist is the durability subsystem: a checkpoint manager
// that writes the probabilistic store's snapshot to an atomic, fsynced,
// rotated file set under a data directory, and restores the newest
// valid checkpoint at boot. Together with the message queue's
// write-ahead log it closes the paper's deployment gap — a long-running
// service accumulating crowd knowledge must survive a restart:
//
//   - Checkpoint writes temp → fsync → rename, then prunes all but the
//     newest N checkpoints. A crash mid-write leaves only a *.tmp file
//     that recovery ignores.
//   - Every checkpoint file checks itself: a header line naming its
//     sequence number, WAL position and write time, then the store
//     image, then a CRC32 of everything before it. Recover tries the
//     files newest to oldest and restores the first that verifies and
//     that the store accepts; corrupt or partial checkpoints are logged
//     and skipped, never trusted.
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
	"encoding/binary"
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

// A checkpoint file is one header line, the store image, and — since v2
// — a 4-byte big-endian CRC32 (IEEE) of everything before it. The header
// carries the sequence number, the queue-WAL LSN and the write time in
// unix nanoseconds, so a file alone says everything recovery needs. v1
// files, written before checkpoints checked themselves, have no trailer
// and no write time; they are still read.
const (
	fileMagic = "neogeo-checkpoint"
	headerV1  = fileMagic + " v1 seq=%d lsn=%d\n"
	headerV2  = fileMagic + " v2 seq=%d lsn=%d created=%d\n"
	crcLen    = 4
)

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
	// Size is the file's length. CRC is the checksum its trailer carries
	// over everything before it (for a v1 file, the CRC32 of the whole
	// file).
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
	if seqs := m.listSeqs(); len(seqs) > 0 {
		m.seq = seqs[0]
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
// in a temp file that is fsynced and renamed into place, so a crash at
// any instant leaves the previous checkpoint authoritative. Old checkpoints
// beyond the retention count are pruned afterwards. The write appears as
// a span on the request or background timeline ctx carries, annotated
// with the image size and WAL position.
func (m *Manager) CheckpointContext(ctx context.Context, s Snapshotter, lsn int64) (Info, error) {
	_, st := obs.Stage(ctx, spanCheckpoint, mCheckpointSeconds)
	info, err := m.checkpoint(s, lsn)
	st.SetAttr("lsn", strconv.FormatInt(lsn, 10))
	if err == nil {
		st.SetAttr("bytes", strconv.FormatInt(info.Size, 10))
	}
	st.End(err)
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
	name := fileName(seq)
	final := filepath.Join(m.dir, name)
	tmp := final + tmpSuffix
	// Round-tripped through the header's unix nanoseconds, so the Info
	// returned here is exactly the one recovery reads back.
	created := time.Unix(0, m.clock().UnixNano())

	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return Info{}, fmt.Errorf("persist: checkpoint %d: %w", seq, err)
	}
	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(f, crc), 1<<20)
	_, err = fmt.Fprintf(bw, headerV2, seq, lsn, created.UnixNano())
	if err == nil {
		err = s.Snapshot(bw)
	}
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		_, err = f.Write(crc.Sum(nil))
	}
	if err == nil {
		err = f.Sync()
	}
	var size int64
	if err == nil {
		size, err = f.Seek(0, io.SeekCurrent)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		os.Remove(tmp)
		return Info{}, fmt.Errorf("persist: checkpoint %d: %w", seq, err)
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
		Created: created,
	}
	m.seq = seq
	m.count++
	m.last = &info
	m.prune()
	return info, nil
}

// Recover restores the newest valid checkpoint into s and returns its
// Info, or nil when the directory holds no usable checkpoint. Files are
// tried newest to oldest; one that fails its checksum, its header or the
// store's own validation is logged and skipped, so the store is only
// modified by a checkpoint that restores cleanly.
func (m *Manager) Recover(s Snapshotter) (*Info, error) {
	m.mu.Lock()
	defer m.mu.Unlock()

	for _, seq := range m.listSeqs() {
		name := fileName(seq)
		info, err := m.restore(s, name)
		if err != nil {
			slog.Warn("persist: skipping unusable checkpoint", "file", name, "err", err)
			continue
		}
		if info.Seq > m.seq {
			m.seq = info.Seq
		}
		m.last = info
		return info, nil
	}
	return nil, nil
}

// restore reads the checkpoint file name, verifies it and restores its
// image into s.
func (m *Manager) restore(s Snapshotter, name string) (*Info, error) {
	path := filepath.Join(m.dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	info, image, err := readCheckpoint(data, fi.ModTime())
	if err != nil {
		return nil, err
	}
	info.File = name
	// The store validates the whole image before replacing anything, so
	// a corrupt payload leaves it untouched and the caller can try an
	// older checkpoint.
	if err := s.Restore(bytes.NewReader(image)); err != nil {
		return nil, err
	}
	return &info, nil
}

// readCheckpoint parses a checkpoint file's bytes into its Info (all but
// File) and the store image it carries. A v2 file must end in the CRC of
// everything before it. A v1 file has no checksum and no write time: its
// CRC is computed here, its Created is mtime, and only the store's own
// validation of the image guards it. Header fields must be canonical —
// formatted again they reproduce the header byte for byte.
func readCheckpoint(data []byte, mtime time.Time) (Info, []byte, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return Info{}, nil, fmt.Errorf("no header line")
	}
	header, body := string(data[:nl+1]), data[nl+1:]
	info := Info{Size: int64(len(data))}
	switch {
	case strings.HasPrefix(header, fileMagic+" v2 "):
		var created int64
		if _, err := fmt.Sscanf(header, headerV2, &info.Seq, &info.LSN, &created); err != nil || fmt.Sprintf(headerV2, info.Seq, info.LSN, created) != header {
			return Info{}, nil, fmt.Errorf("bad header %q", strings.TrimSpace(header))
		}
		if len(body) < crcLen {
			return Info{}, nil, fmt.Errorf("truncated: no checksum")
		}
		info.CRC = binary.BigEndian.Uint32(data[len(data)-crcLen:])
		if got := crc32.ChecksumIEEE(data[:len(data)-crcLen]); got != info.CRC {
			return Info{}, nil, fmt.Errorf("crc %08x, trailer says %08x", got, info.CRC)
		}
		info.Created = time.Unix(0, created)
		return info, body[:len(body)-crcLen], nil
	case strings.HasPrefix(header, fileMagic+" v1 "):
		if _, err := fmt.Sscanf(header, headerV1, &info.Seq, &info.LSN); err != nil || fmt.Sprintf(headerV1, info.Seq, info.LSN) != header {
			return Info{}, nil, fmt.Errorf("bad header %q", strings.TrimSpace(header))
		}
		info.CRC = crc32.ChecksumIEEE(data)
		info.Created = mtime
		return info, body, nil
	}
	return Info{}, nil, fmt.Errorf("bad header %q", strings.TrimSpace(header))
}

// fileName names checkpoint seq's file.
func fileName(seq uint64) string {
	return fmt.Sprintf("%s%016d%s", filePrefix, seq, fileSuffix)
}

// listSeqs returns the sequence numbers of every well-named checkpoint
// file in the directory, newest first.
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
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	return seqs
}

// prune removes checkpoint files beyond the retention count (newest
// kept) and any stale temp files from interrupted writes.
func (m *Manager) prune() {
	for i, seq := range m.listSeqs() {
		if i < m.retain {
			continue
		}
		name := fileName(seq)
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
