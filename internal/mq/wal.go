package mq

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// The write-ahead log is a newline-delimited JSON file of enqueue, ack
// and dead-letter entries. Replay reconstructs the set of
// unacknowledged messages plus the dead-letter list. Each entry has an
// implicit log sequence number (1-based position in the file); the
// durability subsystem's checkpoints record the LSN current when their
// snapshot was taken, so recovery can re-integrate exactly the
// messages acknowledged after the image.
//
// Logs written before dead letters had their own op record them as
// acks; replaying such a log loses the dead-letter list, and under
// WithReplayAckedAfter those entries replay like any other ack (the
// poison message gets a fresh attempt cycle) — the compatibility cost
// of pointing a durable boot at the old format.

type walOp string

const (
	opEnqueue walOp = "enq"
	opAck     walOp = "ack"
	// opDead marks a message that exhausted its delivery attempts: like
	// an ack it is never redelivered, but replay rebuilds it into the
	// dead-letter list instead of dropping it, so Stats().DeadLettered
	// and DeadLetters() survive a restart.
	opDead walOp = "dead"
)

// walEntry is one log line. Msg is set on enqueues only; as a pointer its
// omitempty drops it from ack and dead lines (encoding/json never omits a
// struct value). Lines that still carry a zero "msg" object replay the
// same, since acks and dead letters read only ID.
type walEntry struct {
	Op  walOp    `json:"op"`
	ID  int64    `json:"id,omitempty"`
	Msg *Message `json:"msg,omitempty"`
}

type wal struct {
	f *os.File
}

// scanWAL replays the log bytes arriving through r (size bytes long)
// and returns the parsed entries plus validEnd, the byte offset just
// past the last complete, parseable, newline-terminated entry — where
// appends resume. Everything at and beyond validEnd is a torn trailing
// write the caller should truncate away, not just skip: appending
// after a tolerated partial line would fuse the next entry into it,
// and the fused unparseable line would end replay early on the
// following boot, silently dropping everything after it. An entry
// whose group commit never completed also never reported success to
// its producer, so cutting it loses nothing acknowledged.
//
// The returned error reports only read failures from r; torn tails are
// not errors. The function is pure with respect to its input bytes,
// which is what lets FuzzWALScan hammer it with arbitrary corruption.
func scanWAL(r io.Reader, size int64) ([]walEntry, int64, error) {
	var entries []walEntry
	var validEnd int64
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		lineLen := int64(len(line)) + 1
		if len(line) == 0 {
			validEnd += lineLen
			continue
		}
		var e walEntry
		if err := json.Unmarshal(line, &e); err != nil {
			// Torn final write after a crash: stop replaying here.
			break
		}
		if validEnd+lineLen > size {
			// Parseable but missing its newline: the write was cut
			// between the payload and the terminator — still torn.
			break
		}
		entries = append(entries, e)
		validEnd += lineLen
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	return entries, validEnd, nil
}

// openWAL opens (creating if needed) the log, replays it through
// scanWAL, and truncates any torn tail so appends resume at the end of
// the valid prefix.
func openWAL(path string) (*wal, []walEntry, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("mq: open wal: %w", err)
	}
	fail := func(op string, err error) (*wal, []walEntry, error) {
		f.Close()
		return nil, nil, fmt.Errorf("mq: %s wal: %w", op, err)
	}
	fi, err := f.Stat()
	if err != nil {
		return fail("stat", err)
	}
	size := fi.Size()
	entries, validEnd, err := scanWAL(f, size)
	if err != nil {
		return fail("read", err)
	}
	if validEnd < size {
		if err := f.Truncate(validEnd); err != nil {
			return fail("truncate", err)
		}
		if err := f.Sync(); err != nil {
			return fail("sync", err)
		}
	}
	// Position at the end of the valid prefix for appends.
	if _, err := f.Seek(validEnd, 0); err != nil {
		return fail("seek", err)
	}
	return &wal{f: f}, entries, nil
}

func (w *wal) append(e walEntry) error {
	return w.appendAll([]walEntry{e})
}

// appendAll writes a run of entries as one buffer and one fsync — the
// group commit that lets batched acknowledgements amortize durability
// cost across a whole batch instead of paying a sync per message.
func (w *wal) appendAll(entries []walEntry) error {
	var buf []byte
	for _, e := range entries {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		buf = append(buf, b...)
		buf = append(buf, '\n')
	}
	if len(buf) == 0 {
		return nil
	}
	if _, err := w.f.Write(buf); err != nil {
		return err
	}
	return w.f.Sync()
}

func (w *wal) close() error {
	return w.f.Close()
}
