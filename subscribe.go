package neogeo

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/geo"
	"repro/internal/readpath"
)

// Subscription is a standing query: a continuous predicate over the
// records that integration and feedback commit, registered once and
// streamed until cancelled. Exactly one of Key or Center selects the
// matching axis; Collection optionally restricts to one record type.
type Subscription struct {
	// Collection restricts matches to one collection, e.g. "Hotels"
	// (empty: any).
	Collection string `json:"collection,omitempty"`
	// Key subscribes to one entity by name (e.g. "Hotel Sierra"),
	// matched under the same normalization duplicate detection uses.
	Key string `json:"key,omitempty"`
	// Center and RadiusMeters geofence the subscription: located
	// records within the circle match. RadiusMeters must be positive
	// when Center is set.
	Center       *Location `json:"center,omitempty"`
	RadiusMeters float64   `json:"radius_meters,omitempty"`
}

// SubscriptionEvent is one matching write, projected exactly as answer
// results are: certainty and the most likely value per field, with
// provenance stripped.
type SubscriptionEvent struct {
	// Seq orders events broker-wide; consumers see gaps where other
	// subscriptions matched or their own buffer overflowed.
	Seq int64 `json:"seq"`
	// Action is what the write did: "inserted", "merged", "confirmed",
	// "rejected" or "corrected".
	Action string `json:"action"`
	// Collection and RecordID identify the record.
	Collection string `json:"collection"`
	RecordID   int64  `json:"record_id"`
	// Certainty is the record's certainty after the write.
	Certainty float64 `json:"certainty"`
	// Location is the record's resolved position after the write, nil
	// when none.
	Location *Location `json:"location,omitempty"`
	// Fields maps the record's top-level fields to their most likely
	// value.
	Fields map[string]string `json:"fields"`
	// At is the write's timestamp.
	At time.Time `json:"at"`
}

// Subscribe registers a standing query and returns its ID. The
// subscription starts matching committed writes immediately; events
// buffer (bounded, oldest dropped first) until a consumer attaches with
// OpenSubscription.
func (s *System) Subscribe(ctx context.Context, sub Subscription) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	spec := readpath.Subscription{
		Collection:   sub.Collection,
		Key:          sub.Key,
		RadiusMeters: sub.RadiusMeters,
	}
	if sub.Center != nil {
		spec.Center = &geo.Point{Lat: sub.Center.Lat, Lon: sub.Center.Lon}
	}
	id, err := s.sys.Broker.Subscribe(spec)
	if err != nil {
		return "", mapSubscribeErr(err)
	}
	return id, nil
}

// Unsubscribe cancels a standing query; an open stream observes
// ErrSubscriptionClosed on its next read.
func (s *System) Unsubscribe(ctx context.Context, id string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return mapSubscribeErr(s.sys.Broker.Unsubscribe(id))
}

// OpenSubscription claims a subscription's event stream. Each
// subscription streams to exactly one consumer at a time: a second open
// fails with ErrStreamBusy until the first stream is closed. Close the
// stream when done; the subscription itself stays registered (and keeps
// buffering) until Unsubscribe.
func (s *System) OpenSubscription(ctx context.Context, id string) (*SubscriptionStream, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ch, release, err := s.sys.Broker.Attach(id)
	if err != nil {
		return nil, mapSubscribeErr(err)
	}
	return &SubscriptionStream{ch: ch, release: release}, nil
}

// SubscriptionStream is one consumer's view of a standing query's
// events. It is a single-consumer object: call Next from one goroutine.
type SubscriptionStream struct {
	ch      <-chan readpath.Event
	release func()
}

// Next blocks for the subscription's next event. It fails with ctx's
// error when the context expires first — serving layers use a short
// per-call timeout to interleave heartbeats — and with
// ErrSubscriptionClosed once the subscription is cancelled or the
// system shuts down.
func (st *SubscriptionStream) Next(ctx context.Context) (SubscriptionEvent, error) {
	select {
	case ev, ok := <-st.ch:
		if !ok {
			return SubscriptionEvent{}, ErrSubscriptionClosed
		}
		pub := SubscriptionEvent{
			Seq:        ev.Seq,
			Action:     ev.Action,
			Collection: ev.Collection,
			RecordID:   ev.RecordID,
			Certainty:  ev.Certainty,
			Fields:     ev.Fields,
			At:         ev.At,
		}
		if ev.Location != nil {
			pub.Location = &Location{Lat: ev.Location.Lat, Lon: ev.Location.Lon}
		}
		return pub, nil
	case <-ctx.Done():
		return SubscriptionEvent{}, ctx.Err()
	}
}

// Close releases the stream so another consumer can open the
// subscription. It does not cancel the subscription.
func (st *SubscriptionStream) Close() {
	if st.release != nil {
		st.release()
		st.release = nil
	}
}

// mapSubscribeErr rewrites the broker's typed conditions onto the
// facade's sentinels so callers never import internal packages.
func mapSubscribeErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, readpath.ErrUnknownSubscription):
		return ErrUnknownSubscription
	case errors.Is(err, readpath.ErrStreamBusy):
		return ErrStreamBusy
	case errors.Is(err, readpath.ErrBrokerClosed):
		return ErrSubscriptionClosed
	case errors.Is(err, readpath.ErrInvalidSubscription):
		return fmt.Errorf("%w: %v", ErrInvalidSubscription, err)
	}
	return err
}
