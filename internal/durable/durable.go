// Package durable is the one append-only log behind the queue's
// write-ahead log and the feedback ledger: an optional header line, then
// newline-terminated records, every append fsynced before it returns.
// A crash can only leave a torn final record — an append whose fsync
// never completed never reported success — so Open cuts it away and the
// next append starts a fresh line.
package durable

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("durable: log closed")

// Scan reads a log from r: header, then records. It calls decode on each
// non-blank record in order and returns end, the byte offset just past
// the last record decode accepted — where appends resume. Replay stops,
// without an error, at the first record decode rejects or that has no
// newline: a torn final write. The caller must truncate everything from
// end on, not skip it: an append after a partial line would fuse into
// it, and the fused line would end the next replay early.
//
// Empty input is an empty log; any other input must begin with header.
// Records have no length cap. The slice decode receives is valid only
// during the call. The only errors are a missing header and read
// failures from r.
func Scan(r io.Reader, header string, decode func(record []byte) error) (int64, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	if _, err := br.Peek(1); err != nil {
		if err == io.EOF {
			return 0, nil
		}
		return 0, err
	}
	if head, _ := br.Peek(len(header)); string(head) != header {
		return 0, fmt.Errorf("durable: log does not start with %q", header)
	}
	n, _ := br.Discard(len(header))
	end := int64(n)
	var long []byte
	for {
		rec, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			// A record longer than the buffer is gathered whole.
			long = append(long[:0], rec...)
			for err == bufio.ErrBufferFull {
				rec, err = br.ReadSlice('\n')
				long = append(long, rec...)
			}
			rec = long
		}
		if err == io.EOF {
			return end, nil // the clean end, or a record with no newline
		}
		if err != nil {
			return 0, err
		}
		if len(rec) > 1 && decode(rec[:len(rec)-1]) != nil {
			return end, nil
		}
		end += int64(len(rec))
	}
}

// JSON returns a decode function for Scan and Open that unmarshals each
// record into a T and hands it to fn; a record that does not unmarshal
// ends replay.
func JSON[T any](fn func(T)) func(record []byte) error {
	return func(record []byte) error {
		var v T
		if err := json.Unmarshal(record, &v); err != nil {
			return err
		}
		fn(v)
		return nil
	}
}

// Log is an open append-only log. Its methods are safe for concurrent
// use.
type Log struct {
	mu sync.Mutex
	f  *os.File
}

// Open opens (creating if needed) the log at path and replays it through
// Scan. It then truncates any torn tail, writes header into an empty
// file, fsyncs, and positions at the end for appends.
func Open(path, header string, decode func(record []byte) error) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	end, err := Scan(f, header, decode)
	if err == nil {
		err = f.Truncate(end)
	}
	if err == nil && end == 0 {
		_, err = f.WriteAt([]byte(header), 0)
		end = int64(len(header))
	}
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		_, err = f.Seek(end, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: %s: %w", path, err)
	}
	return &Log{f: f}, nil
}

// Append writes records, each followed by a newline, as one write and
// one fsync: the group commit that lets a batch share the cost of
// durability. A record must not contain a newline.
func (l *Log) Append(records ...[]byte) error {
	var buf []byte
	for _, r := range records {
		buf = append(append(buf, r...), '\n')
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return ErrClosed
	}
	if _, err := l.f.Write(buf); err != nil {
		return err
	}
	return l.f.Sync()
}

// Close releases the file. Closing twice is a no-op.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
