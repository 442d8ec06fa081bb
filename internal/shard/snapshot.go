package shard

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/xmldb"
)

// snapshotMagic heads a sharded snapshot stream; the shard count follows
// on the same line so Restore can refuse a mismatched layout before
// reading a single record.
const snapshotMagic = "neogeo-shard-snapshot v1"

// Snapshot writes an image of every shard to w as one stream: a header
// line naming the format and the shard count, then one length-prefixed
// (big-endian uint64) xmldb snapshot section per shard, in shard order.
// Each shard is read-locked only while its own section is produced, so
// the image is consistent per shard but not across shards: a write
// landing between two sections appears in the later shard's section
// only. Quiesce writers (finish the drain) before snapshotting when a
// point-in-time image of the whole store is required.
func (s *Store) Snapshot(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s %d\n", snapshotMagic, len(s.dbs)); err != nil {
		return fmt.Errorf("shard: snapshot header: %w", err)
	}
	var buf bytes.Buffer
	for i, db := range s.dbs {
		buf.Reset()
		if err := db.Snapshot(&buf); err != nil {
			return fmt.Errorf("shard: snapshot shard %d: %w", i, err)
		}
		if err := WriteSection(w, buf.Bytes()); err != nil {
			return fmt.Errorf("shard: snapshot shard %d: %w", i, err)
		}
	}
	return nil
}

// Restore replaces every shard's contents with the sections of a
// snapshot produced by Snapshot. The snapshot's shard count must match
// this store's — sections are placed by position, and record IDs encode
// their home shard, so restoring into a different layout would scatter
// records off their routes. Every section is decoded and validated once,
// before any live shard is touched, so a malformed snapshot leaves the
// store unchanged; then all are installed, and each shard's ID sequence
// is re-aligned onto its residue class so new inserts keep strided,
// globally unique IDs.
func (s *Store) Restore(r io.Reader) error {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil {
		return fmt.Errorf("shard: restore: reading header: %w", err)
	}
	var count int
	if _, err := fmt.Sscanf(header, snapshotMagic+" %d\n", &count); err != nil {
		return fmt.Errorf("shard: restore: not a sharded snapshot (header %q)", header)
	}
	if count != len(s.dbs) {
		return fmt.Errorf("shard: restore: snapshot has %d shard(s), store has %d", count, len(s.dbs))
	}

	staged := make([]*xmldb.Staged, count)
	for i := range staged {
		section, err := ReadSection(br)
		if err != nil {
			return fmt.Errorf("shard: restore: shard %d section: %w", i, err)
		}
		if staged[i], err = xmldb.DecodeSnapshot(bytes.NewReader(section)); err != nil {
			return fmt.Errorf("shard: restore: shard %d: %w", i, err)
		}
	}

	n := int64(len(s.dbs))
	for i, db := range s.dbs {
		db.Install(staged[i])
		if err := db.AlignIDSequence(int64(i)+1, n); err != nil {
			return fmt.Errorf("shard: restore: shard %d: %w", i, err)
		}
	}
	s.auditDrift()
	return nil
}

// WriteSection writes data as one length-prefixed (big-endian uint64)
// section of a snapshot stream.
func WriteSection(w io.Writer, data []byte) error {
	if err := binary.Write(w, binary.BigEndian, uint64(len(data))); err != nil {
		return err
	}
	_, err := w.Write(data)
	return err
}

// ReadSection reads one section written by WriteSection. The length comes
// from the stream, so the bytes are copied as they arrive: a torn or
// hostile image fails on its short input instead of allocating whatever
// its length field claims.
func ReadSection(r io.Reader) ([]byte, error) {
	var n uint64
	if err := binary.Read(r, binary.BigEndian, &n); err != nil {
		return nil, err
	}
	if n > math.MaxInt64 {
		return nil, fmt.Errorf("section length %d out of range", n)
	}
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("section of %d bytes: %w", n, err)
	}
	return buf.Bytes(), nil
}

// auditDrift re-counts placement drift after a restore: a restored
// image can carry records whose location moved off their home shard's
// routing cell in a previous process (the in-memory drift counters do
// not persist). Any such record makes spatial plan narrowing unsound,
// so finding one moves the store's drift epoch.
func (s *Store) auditDrift() {
	if len(s.dbs) == 1 {
		return
	}
	var drifted int64
	for i, db := range s.dbs {
		for _, coll := range db.Collections() {
			db.Each(coll, func(rec *xmldb.Record) bool {
				if rec.Location != nil && s.router.Route(rec.Location, DocKey(rec.Doc)) != i {
					drifted++
				}
				return true
			})
		}
	}
	s.restoreDrift.Add(drifted)
}
