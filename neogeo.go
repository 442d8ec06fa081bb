// Package neogeo is the public API of the neogeography system: a pipeline
// that channels large, ill-behaved user-generated text streams (tweets,
// SMS) into a probabilistic spatial XML database and answers natural-
// language questions over the accumulated collective knowledge.
//
// It reproduces the system proposed in Habib & van Keulen, "Neogeography:
// The Challenge of Channelling Large and Ill-Behaved Data Streams"
// (ICDE 2011 PhD workshop / Univ. of Twente TR). See README.md for the
// architecture, docs/API.md for the HTTP surface served by cmd/neogeod,
// and EXPERIMENTS.md for the reproduced results.
//
// The facade is a stable surface over the internal pipeline: systems are
// built with functional options, every entry point threads a
// context.Context, answers are structured (generated text plus the ranked
// results and their certainties), and failure conditions callers branch
// on are typed sentinel errors (ErrNotAQuestion, ErrQueueClosed).
//
// Quickstart:
//
//	sys, err := neogeo.New()
//	if err != nil { ... }
//	defer sys.Close()
//	ctx := context.Background()
//	sys.Ingest(ctx, "loved the Axel Hotel in Berlin, great stay", "alice")
//	ans, _ := sys.Ask(ctx, "can anyone recommend a good hotel in Berlin?", "bob")
//	fmt.Println(ans.Text)           // the generated reply
//	fmt.Println(ans.Query)          // the formulated database query
//	for _, r := range ans.Results { // the ranked records behind it
//		fmt.Println(r.Fields["Hotel_Name"], r.Certainty)
//	}
//
// Queued messages are processed by one of two engines. Ingest runs its
// message inline, in order — the deterministic path. For heavy streams,
// enqueue with Submit and Drain through the concurrent pipeline — a
// worker pool (WithWorkers, default GOMAXPROCS) runs extraction in
// parallel while per-shard integration lanes amortize database
// integration and queue acknowledgement. WithShards partitions the
// probabilistic store spatially (0/1 keeps a single store). Drain
// streams outcomes as they complete, on the goroutine that ranges over
// it, so a million-message drain never buffers every outcome in memory:
//
//	sys, _ := neogeo.New(neogeo.WithShards(4), neogeo.WithWorkers(8))
//	for _, m := range stream {
//		sys.Submit(ctx, m.Text, m.Source)
//	}
//	for out, err := range sys.Drain(ctx, 0) {
//		...
//	}
//
// Answers expose record IDs, and Feedback closes the paper's loop: a
// verdict (confirm/reject/correct) about a result updates the record's
// certainty, the reliability of the sources that built it, and the
// disambiguation priors that decide how future ambiguous place names
// resolve. Verdicts apply asynchronously in per-shard batches:
//
//	ans, _ := sys.Ask(ctx, "any good hotel in Paris?", "bob")
//	sys.Feedback(ctx, neogeo.Feedback{
//		RecordID: ans.Results[0].ID,
//		Verdict:  neogeo.VerdictConfirm,
//		Source:   "bob",
//	})
//	sys.FlushFeedback(ctx) // or let the serving layer's loop apply it
//
// To serve the system over HTTP, see internal/server and the cmd/neogeod
// daemon. The facade's value types are also the HTTP API's schemas: the
// server decodes request bodies into, and encodes responses from, Answer,
// Feedback, Subscription, SubscriptionEvent and the Stats families as
// they are, so their json tags are the wire contract (docs/API.md).
package neogeo

import (
	"context"
	"errors"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/mq"
	"repro/internal/uncertain"
)

// CheckpointInfo describes one written checkpoint.
type CheckpointInfo struct {
	// Seq is the checkpoint's monotonic sequence number within the data
	// directory.
	Seq uint64
	// Bytes is the checkpoint file's size.
	Bytes int64
}

// System is the assembled neogeography pipeline behind the facade. All
// methods are safe for concurrent use.
type System struct {
	sys *core.System
}

// New builds a System. The zero-option value is a working laptop-scale
// system with a calibrated synthetic gazetteer; options scale it out
// (WithShards, WithWorkers) or make it durable (WithQueueWAL).
func New(opts ...Option) (*System, error) {
	var s settings
	for _, opt := range opts {
		opt(&s)
	}
	sys, err := core.New(s.core)
	if err != nil {
		return nil, err
	}
	return &System{sys: sys}, nil
}

// Close releases the system's resources (the message-queue WAL). After
// Close, Submit and Ingest return ErrQueueClosed.
func (s *System) Close() error {
	return s.sys.Close()
}

// Submit enqueues a raw user message for asynchronous processing by a
// later Drain and returns its queue ID.
func (s *System) Submit(ctx context.Context, body, source string) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	id, err := s.sys.Submit(ctx, body, source)
	if err != nil {
		return 0, mapQueueErr(err)
	}
	return id, nil
}

// Ingest submits and fully processes one message synchronously, returning
// its outcome — classification, integration actions, and for requests the
// structured answer. Processing is synchronous CPU work; ctx is checked
// on entry.
//
// Ingest is meant for interactive, single-writer flows: it processes the
// queue's next message inline (the coordinator's ProcessOne engine),
// which is its own submission only while no Drain runs concurrently. A
// serving deployment uses Submit + Drain for contributions and Ask (which
// never touches the queue) for questions.
func (s *System) Ingest(ctx context.Context, body, source string) (*Outcome, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out, err := s.sys.Ingest(ctx, body, source)
	if err != nil {
		return nil, mapQueueErr(err)
	}
	return publicOutcome(out), nil
}

// Ask answers a question synchronously through the read-only QA path —
// nothing is enqueued, so Ask never races with a concurrent Drain over
// pending messages. A message classified informative rather than as a
// question fails with a *NotAQuestionError matching ErrNotAQuestion,
// carrying the classification (type, probability) the classifier saw.
func (s *System) Ask(ctx context.Context, question, source string) (*Answer, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ans, err := s.sys.Ask(ctx, question, source)
	if err != nil {
		return nil, mapAskErr(err)
	}
	return publicAnswer(ans), nil
}

// Stats returns a snapshot of the system's stores, queue health and
// durability state.
func (s *System) Stats() Stats {
	st := s.sys.Stats()
	fb := s.sys.Feedback.Stats()
	out := Stats{
		GazetteerEntries: st.GazetteerEntries,
		GazetteerNames:   st.GazetteerNames,
		Queue:            QueueStats(s.sys.Queue.Stats()),
		Collections:      st.Collections,
		Shards:           st.Shards,
		ShardRecords:     st.ShardRecords,
		Checkpoint:       CheckpointStats(s.sys.CheckpointStats()),
		// The engine's AppliedSeq watermark is a recovery detail, not a
		// counter; it stays off the facade.
		Feedback: FeedbackStats{
			Accepted:     fb.Accepted,
			Replayed:     fb.Replayed,
			Applied:      fb.Applied,
			Confirmed:    fb.Confirmed,
			Rejected:     fb.Rejected,
			Corrected:    fb.Corrected,
			Pending:      fb.Pending,
			Deferred:     fb.Deferred,
			DroppedStale: fb.DroppedStale,
		},
		Decay:         DecayStats(s.sys.DecayStats()),
		Subscriptions: SubscriptionStats(s.sys.Broker.Stats()),
	}
	if c := s.sys.Cache; c != nil {
		cs := c.Stats()
		out.Cache = CacheStats{
			Enabled:       true,
			Entries:       cs.Entries,
			Capacity:      cs.Capacity,
			Hits:          cs.Hits,
			Misses:        cs.Misses,
			HitRate:       hitRate(cs.Hits, cs.Misses),
			Evictions:     cs.Evictions,
			Invalidations: cs.Invalidations,
		}
	}
	if r := s.sys.Recorder; r != nil {
		rs := r.Stats()
		out.Traces = TraceStats{
			Enabled:              true,
			Capacity:             rs.Capacity,
			Kept:                 rs.Kept,
			Active:               rs.Active,
			Completed:            rs.Completed,
			KeptTotal:            rs.KeptTotal,
			Dropped:              rs.Dropped,
			Evicted:              rs.Evicted,
			SlowThresholdSeconds: rs.SlowThresholdSeconds,
			SampleN:              rs.SampleN,
		}
	}
	return out
}

// hitRate folds the cache counters into the ratio dashboards want.
func hitRate(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// Checkpoint writes one durable image of the integrated store to the
// data directory (WithDataDir) and returns what was written. The write
// is atomic and fsynced; on the next construction against the same
// directory the newest valid checkpoint is restored before the queue
// WAL replays, so a crash between checkpoints loses nothing that was
// acknowledged — those messages re-integrate idempotently. Without a
// data directory it fails with ErrNoDataDir.
func (s *System) Checkpoint(ctx context.Context) (CheckpointInfo, error) {
	info, err := s.sys.Checkpoint(ctx)
	if err != nil {
		if errors.Is(err, core.ErrNoDataDir) {
			return CheckpointInfo{}, ErrNoDataDir
		}
		return CheckpointInfo{}, err
	}
	return CheckpointInfo{Seq: info.Seq, Bytes: info.Size}, nil
}

// Snapshot writes a consistent image of the (possibly sharded)
// probabilistic spatial XML database to w. Together with the queue WAL
// this covers the system's durable state; the gazetteer, ontology and
// knowledge base are rebuilt from configuration.
func (s *System) Snapshot(w io.Writer) error {
	return s.sys.Snapshot(w)
}

// Restore replaces the database contents with a snapshot produced by
// Snapshot on a system with the same shard count. On error the database
// is unchanged.
func (s *System) Restore(r io.Reader) error {
	return s.sys.Restore(r)
}

// Decay applies temporal certainty decay to every stored record as of
// now, deleting records whose certainty falls below floor — geographic
// information is dynamic, and unconfirmed reports fade.
func (s *System) Decay(now time.Time, floor float64) (decayed, deleted int, err error) {
	return s.sys.DecayAll(now, uncertain.CF(floor))
}

// mapQueueErr rewrites the internal queue-closed condition onto the
// facade's sentinel so callers never import internal packages to branch.
func mapQueueErr(err error) error {
	if errors.Is(err, mq.ErrClosed) {
		return ErrQueueClosed
	}
	return err
}
