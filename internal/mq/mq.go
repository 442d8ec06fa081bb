// Package mq implements the paper's Messages Queue (MQ): "the queue of
// text messages received from users that need to be processed". It is a
// lease-based queue with acknowledgement, negative acknowledgement,
// visibility timeouts with automatic redelivery, and optional write-ahead
// logging so an interrupted pipeline can resume without losing user
// contributions.
package mq

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/durable"
)

// ErrClosed is returned by EnqueueTraced after Close: the queue no longer
// accepts new messages (its WAL handle is gone), so callers can branch on
// the condition instead of matching error strings.
var ErrClosed = errors.New("mq: queue closed")

// Message is one user contribution or request.
type Message struct {
	ID       int64
	Body     string
	Source   string    // sender identity (phone number, handle …)
	Received time.Time // enqueue time
	Attempts int       // delivery attempts so far
	// Trace is the observability trace ID minted (or accepted via
	// X-Request-Id) when the message entered the system. It rides in the
	// envelope — and therefore in the WAL enqueue entry — so a message's
	// log lines keep the same ID across the queue hop and across replay
	// after a crash.
	Trace string `json:",omitempty"`
}

// Queue is a FIFO message queue with leases. All methods are safe for
// concurrent use.
type Queue struct {
	mu sync.Mutex
	// pending holds undelivered message IDs in order.
	pending []int64
	// messages maps ID to message for both pending and in-flight.
	messages map[int64]*Message
	// inflight maps ID to lease expiry.
	inflight map[int64]time.Time
	nextID   int64
	// visibility is the lease duration before redelivery.
	visibility time.Duration
	clock      func() time.Time
	wal        *durable.Log
	maxAttempt int
	closed     bool
	dead       []*Message // messages that exhausted their attempts
	// acked counts successfully acknowledged messages over the queue's
	// lifetime (Stats).
	acked int
	// lsn counts WAL entries durably appended or replayed — the log
	// sequence number the durability subsystem's checkpoints record, so
	// recovery knows which acknowledgements postdate the last image. 0
	// without a WAL.
	lsn int64
	// replayAcked re-enqueues, at Open, messages whose ack landed after
	// ackedAfter — set when a checkpoint-recovered store needs the
	// messages integrated since the image replayed into it.
	replayAcked bool
	ackedAfter  int64
	// walErrs counts WAL appends that failed on a path that cannot
	// propagate them (the dead-letter move in Dequeue); surfaced in
	// Stats so operators see the log diverging instead of silence.
	walErrs int
}

// Option configures a queue.
type Option func(*Queue)

// WithVisibility sets the lease duration (default 30s).
func WithVisibility(d time.Duration) Option {
	return func(q *Queue) { q.visibility = d }
}

// WithClock overrides the time source (tests).
func WithClock(clock func() time.Time) Option {
	return func(q *Queue) { q.clock = clock }
}

// WithMaxAttempts sets how many deliveries a message gets before moving to
// the dead-letter list (default 5).
func WithMaxAttempts(n int) Option {
	return func(q *Queue) { q.maxAttempt = n }
}

// WithReplayAckedAfter makes Open re-enqueue messages whose
// acknowledgement was logged after WAL entry lsn. The durability
// subsystem passes the LSN recorded in the checkpoint it restored (0
// when it found none): messages acknowledged since that image were
// integrated into state the crash discarded, and re-integrating them is
// safe — integration folds a replayed message into its existing record.
// Dead-lettered messages (opDead entries) are never replayed; a log
// written before dead letters had their own op recorded them as plain
// acks, and those replay like any other post-cutoff ack — the one-time
// migration cost of pointing a durable boot at an old-format WAL.
// Without this option Open keeps acknowledged messages acknowledged.
func WithReplayAckedAfter(lsn int64) Option {
	return func(q *Queue) {
		q.replayAcked = true
		q.ackedAfter = lsn
	}
}

// New returns an in-memory queue.
func New(opts ...Option) *Queue {
	q := &Queue{
		messages:   make(map[int64]*Message),
		inflight:   make(map[int64]time.Time),
		nextID:     1,
		visibility: 30 * time.Second,
		clock:      time.Now,
		maxAttempt: 5,
	}
	for _, o := range opts {
		o(q)
	}
	return q
}

// Open returns a queue backed by a write-ahead log at path, replaying any
// existing log so unacknowledged messages survive restarts — and, under
// WithReplayAckedAfter, so do messages acknowledged after the last
// checkpoint, re-enqueued for idempotent re-integration. Dead-lettered
// messages replay into the dead-letter list, never back into pending.
func Open(path string, opts ...Option) (*Queue, error) {
	q := New(opts...)
	// ackLSN records where each acknowledgement sits in the log, so the
	// checkpoint cutoff can separate acks the image already covers from
	// acks whose effects the crash discarded.
	ackLSN := make(map[int64]int64)
	var deadIDs []int64
	w, err := durable.Open(path, "", durable.JSON(func(e walEntry) {
		q.lsn++
		switch e.Op {
		case opEnqueue:
			// An enqueue line always carries its message; one without
			// (a damaged log) has nothing to replay.
			if m := e.Msg; m != nil {
				q.messages[m.ID] = m
				if m.ID >= q.nextID {
					q.nextID = m.ID + 1
				}
			}
		case opAck:
			ackLSN[e.ID] = q.lsn
		case opDead:
			deadIDs = append(deadIDs, e.ID)
		}
	}))
	if err != nil {
		return nil, fmt.Errorf("mq: wal: %w", err)
	}
	q.wal = w
	for _, id := range deadIDs {
		m, ok := q.messages[id]
		if !ok {
			continue
		}
		q.dead = append(q.dead, m)
		delete(q.messages, id)
		delete(ackLSN, id)
	}
	for id, at := range ackLSN {
		if q.replayAcked && at > q.ackedAfter {
			// Acknowledged after the checkpoint image: stays enqueued for
			// re-integration. Its re-acknowledgement will land at a fresh
			// LSN past the next checkpoint's cutoff.
			continue
		}
		delete(q.messages, id)
		q.acked++
	}
	// Rebuild pending order by ID (receive order).
	for id := int64(1); id < q.nextID; id++ {
		if _, ok := q.messages[id]; ok {
			q.pending = append(q.pending, id)
		}
	}
	return q, nil
}

// Close stops the queue accepting new messages and releases the WAL file
// handle, if any. Closing twice is a no-op.
func (q *Queue) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil
	}
	q.closed = true
	if q.wal != nil {
		return q.wal.Close()
	}
	return nil
}

// EnqueueTraced adds a message and returns its ID; after Close it
// returns ErrClosed. The trace ID (empty: untraced) is persisted in the
// envelope (and the WAL) so observability follows the message across the
// queue hop and replay.
func (q *Queue) EnqueueTraced(body, source, trace string) (int64, error) {
	if body == "" {
		return 0, fmt.Errorf("mq: empty message body")
	}
	defer mEnqueueSeconds.Since(time.Now())
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return 0, ErrClosed
	}
	m := &Message{
		ID:       q.nextID,
		Body:     body,
		Source:   source,
		Received: q.clock(),
		Trace:    trace,
	}
	q.nextID++
	if q.wal != nil {
		if err := q.walAppend(walEntry{Op: opEnqueue, Msg: m}); err != nil {
			return 0, fmt.Errorf("mq: wal: %w", err)
		}
	}
	q.messages[m.ID] = m
	q.pending = append(q.pending, m.ID)
	mEnqueued.Inc()
	return m.ID, nil
}

// Dequeue leases the next message. ok is false when the queue is empty.
// Expired leases are reclaimed first.
func (q *Queue) Dequeue() (Message, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.clock()
	q.reclaimExpired(now)
	for len(q.pending) > 0 {
		id := q.pending[0]
		q.pending = q.pending[1:]
		m, ok := q.messages[id]
		if !ok {
			continue
		}
		m.Attempts++
		if m.Attempts > q.maxAttempt {
			q.dead = append(q.dead, m)
			delete(q.messages, id)
			if q.wal != nil {
				// The move itself cannot fail back to the caller, so a
				// failed append is recorded rather than swallowed: the
				// message is dead-lettered in memory but the log no
				// longer agrees, and Stats surfaces that divergence.
				if err := q.walAppend(walEntry{Op: opDead, ID: id}); err != nil {
					q.walErrs++
					mWALAppendErrors.Inc()
				}
			}
			mDeadLettered.Inc()
			continue
		}
		q.inflight[id] = now.Add(q.visibility)
		return *m, true
	}
	return Message{}, false
}

func (q *Queue) reclaimExpired(now time.Time) {
	for id, deadline := range q.inflight {
		if now.After(deadline) {
			delete(q.inflight, id)
			q.pending = append(q.pending, id)
		}
	}
}

// Ack acknowledges one leased message, removing it permanently: an
// AckBatch of one, so a failed WAL append leaves it in flight.
func (q *Queue) Ack(id int64) error {
	_, err := q.AckBatch([]int64{id})
	return err
}

// AckBatch acknowledges a run of leased messages under one lock
// acquisition and one WAL group commit, returning the IDs it actually
// acknowledged. Every listed message that is in flight is acknowledged;
// IDs that are not in flight are reported in the returned error without
// blocking the rest of the batch. If the WAL write fails no message is
// acknowledged and acked is empty — callers can tell a total failure
// (acked empty) from a partial one (acked non-empty plus an error for
// the missing IDs).
func (q *Queue) AckBatch(ids []int64) (acked []int64, err error) {
	defer mAckSeconds.Since(time.Now())
	q.mu.Lock()
	defer q.mu.Unlock()
	var missing []int64
	valid := make([]int64, 0, len(ids))
	for _, id := range ids {
		if _, ok := q.inflight[id]; ok {
			valid = append(valid, id)
		} else {
			missing = append(missing, id)
		}
	}
	if q.wal != nil && len(valid) > 0 {
		entries := make([]walEntry, len(valid))
		for i, id := range valid {
			entries[i] = walEntry{Op: opAck, ID: id}
		}
		if err := q.walAppend(entries...); err != nil {
			return nil, fmt.Errorf("mq: wal: %w", err)
		}
	}
	for _, id := range valid {
		delete(q.inflight, id)
		delete(q.messages, id)
	}
	q.acked += len(valid)
	mAcked.Add(float64(len(valid)))
	if len(missing) > 0 {
		return valid, fmt.Errorf("mq: %d message(s) not in flight (first: %d)", len(missing), missing[0])
	}
	return valid, nil
}

// walAppend appends entries as one group commit — one write and one
// fsync, so batched acknowledgements share the cost of durability — and
// advances the log sequence number by however many entries became
// durable. Callers hold q.mu.
func (q *Queue) walAppend(entries ...walEntry) error {
	start := time.Now()
	records := make([][]byte, len(entries))
	for i, e := range entries {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		records[i] = b
	}
	err := q.wal.Append(records...)
	mWALFsyncSeconds.Since(start)
	if err != nil {
		return err
	}
	q.lsn += int64(len(entries))
	return nil
}

// LSN returns the WAL's current log sequence number: the count of
// entries durably appended or replayed, 0 for an in-memory queue. The
// durability subsystem captures it immediately before snapshotting the
// store, so a later recovery replays exactly the acknowledgements the
// image does not cover.
func (q *Queue) LSN() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.lsn
}

// Nack returns a leased message to the front of the queue for immediate
// redelivery.
func (q *Queue) Nack(id int64) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.inflight[id]; !ok {
		return fmt.Errorf("mq: message %d not in flight", id)
	}
	delete(q.inflight, id)
	q.pending = append([]int64{id}, q.pending...)
	mNacked.Inc()
	return nil
}

// Len returns the number of undelivered (pending) messages.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reclaimExpired(q.clock())
	n := 0
	for _, id := range q.pending {
		if _, ok := q.messages[id]; ok {
			n++
		}
	}
	return n
}

// InFlight returns the number of leased, unacknowledged messages.
func (q *Queue) InFlight() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.inflight)
}

// Stats is a point-in-time queue-health snapshot.
type Stats struct {
	// Pending is the number of undelivered messages.
	Pending int
	// InFlight is the number of leased, unacknowledged messages.
	InFlight int
	// Acked counts messages successfully acknowledged over the queue's
	// lifetime (group commits included).
	Acked int
	// DeadLettered counts messages that exhausted their delivery
	// attempts.
	DeadLettered int
	// WALAppendErrors counts write-ahead-log appends that failed on the
	// dead-letter path, where no caller can receive the error: non-zero
	// means the in-memory dead-letter list and the log have diverged.
	WALAppendErrors int
}

// Stats returns a consistent queue-health snapshot under one lock
// acquisition — what drains and benchmarks report. Expired leases are
// reclaimed first, so Pending/InFlight reflect the queue as a consumer
// would next see it.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reclaimExpired(q.clock())
	pending := 0
	for _, id := range q.pending {
		if _, ok := q.messages[id]; ok {
			pending++
		}
	}
	return Stats{
		Pending:         pending,
		InFlight:        len(q.inflight),
		Acked:           q.acked,
		DeadLettered:    len(q.dead),
		WALAppendErrors: q.walErrs,
	}
}

// DeadLetters returns messages that exhausted their delivery attempts.
func (q *Queue) DeadLetters() []Message {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Message, len(q.dead))
	for i, m := range q.dead {
		out[i] = *m
	}
	return out
}
