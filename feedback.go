package neogeo

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/feedback"
)

// Verdict is a user's judgement of one answer result — the paper's
// "user feedback on query answers", the mechanism that drives the
// store's uncertainty down over time.
type Verdict string

// Verdicts.
const (
	// VerdictConfirm corroborates the result: the record's certainty
	// rises, its contributing sources gain reliability, and its resolved
	// gazetteer interpretation is reinforced so future ambiguous
	// mentions lean the same way.
	VerdictConfirm Verdict = "confirm"
	// VerdictReject disputes the result: certainty falls and the
	// contributing sources lose reliability.
	VerdictReject Verdict = "reject"
	// VerdictCorrect replaces a field value or the record's location.
	VerdictCorrect Verdict = "correct"
)

// Feedback is one verdict about one answer result.
type Feedback struct {
	// RecordID is the record the answer exposed (Result.ID).
	RecordID int64 `json:"record_id"`
	// Verdict is the judgement.
	Verdict Verdict `json:"verdict"`
	// Field and Value carry a correction's replacement field value
	// (VerdictCorrect only).
	Field string `json:"field,omitempty"`
	Value string `json:"value,omitempty"`
	// Location carries a correction's replacement location
	// (VerdictCorrect only).
	Location *Location `json:"location,omitempty"`
	// Source identifies the user giving feedback; their learned
	// reliability weights the evidence the verdict contributes.
	Source string `json:"source,omitempty"`
}

// FeedbackReceipt acknowledges an accepted verdict.
type FeedbackReceipt struct {
	// Seq is the verdict's sequence number in the feedback ledger.
	Seq int64
}

// FeedbackStats is the feedback subsystem's counters snapshot.
type FeedbackStats struct {
	// Accepted counts verdicts accepted into the ledger by this process;
	// Replayed counts ledger entries recovered at boot.
	Accepted int64 `json:"accepted"`
	Replayed int64 `json:"replayed"`
	// Applied counts verdicts whose effects reached the store, broken
	// down by kind in Confirmed/Rejected/Corrected.
	Applied   int64 `json:"applied"`
	Confirmed int64 `json:"confirmed"`
	Rejected  int64 `json:"rejected"`
	Corrected int64 `json:"corrected"`
	// Pending is the number of buffered verdicts awaiting a batched
	// apply; Deferred the subset parked until recovery re-integrates
	// their record.
	Pending  int `json:"pending"`
	Deferred int `json:"deferred"`
	// DroppedStale counts verdicts whose record was deleted between
	// accept and apply.
	DroppedStale int64 `json:"dropped_stale"`
}

// DecayStats is the certainty-ageing totals snapshot.
type DecayStats struct {
	// Runs counts decay passes; Decayed and Deleted total the records
	// aged and dropped across them.
	Runs    int64 `json:"runs"`
	Decayed int64 `json:"decayed"`
	Deleted int64 `json:"deleted"`
}

// Feedback accepts a user verdict about an answer result and returns
// once it is durably logged (when the system has a data directory) and
// routed to its record's home shard. The apply is asynchronous and
// batched: certainty, source reliability and disambiguation priors
// update on the next flush — FlushFeedback, the serving layer's
// background loop, or automatically once the shard's buffer holds a
// full batch (WithFeedbackBatch).
//
// Failure conditions are typed: ErrUnknownRecord for a record ID that
// was never allocated, ErrStaleAnswer for a record deleted since the
// answer was generated, ErrInvalidFeedback for a malformed verdict.
func (s *System) Feedback(ctx context.Context, fb Feedback) (FeedbackReceipt, error) {
	if err := ctx.Err(); err != nil {
		return FeedbackReceipt{}, err
	}
	v := feedback.Verdict{
		RecordID: fb.RecordID,
		Kind:     feedback.Kind(fb.Verdict),
		Field:    fb.Field,
		Value:    fb.Value,
		Source:   fb.Source,
	}
	if fb.Location != nil {
		lat, lon := fb.Location.Lat, fb.Location.Lon
		v.Lat, v.Lon = &lat, &lon
	}
	seq, err := s.sys.Feedback.Submit(v)
	if err != nil {
		return FeedbackReceipt{}, mapFeedbackErr(err)
	}
	return FeedbackReceipt{Seq: seq}, nil
}

// FlushFeedback applies every buffered verdict now — one amortized
// database batch per home shard, shards in parallel — and returns how
// many were applied. Interactive callers use it to observe their own
// feedback immediately; serving deployments rely on the background
// loop instead.
func (s *System) FlushFeedback(ctx context.Context) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return s.sys.Feedback.Flush(), nil
}

// mapFeedbackErr rewrites the engine's typed conditions onto the
// facade's sentinels so callers never import internal packages.
func mapFeedbackErr(err error) error {
	switch {
	case errors.Is(err, feedback.ErrUnknownRecord):
		return fmt.Errorf("%w: %v", ErrUnknownRecord, err)
	case errors.Is(err, feedback.ErrStaleAnswer):
		return fmt.Errorf("%w: %v", ErrStaleAnswer, err)
	case errors.Is(err, feedback.ErrInvalidVerdict):
		return fmt.Errorf("%w: %v", ErrInvalidFeedback, err)
	}
	return err
}
