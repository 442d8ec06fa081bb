package readpath

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/extract"
	"repro/internal/geo"
	"repro/internal/integrate"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/text"
	"repro/internal/xmldb"
)

// Broker errors callers branch on.
var (
	// ErrUnknownSubscription reports an ID that was never issued or was
	// already cancelled.
	ErrUnknownSubscription = errors.New("readpath: unknown subscription")
	// ErrStreamBusy reports an Attach on a subscription that already has
	// a consumer — each subscription streams to exactly one.
	ErrStreamBusy = errors.New("readpath: subscription stream already attached")
	// ErrBrokerClosed reports operations on a closed broker.
	ErrBrokerClosed = errors.New("readpath: broker closed")
	// ErrInvalidSubscription reports a malformed subscription spec.
	ErrInvalidSubscription = errors.New("readpath: invalid subscription")
)

var (
	mSubEvents = obs.Default().Counter("neogeo_subscription_events_total",
		"Standing-query events fanned out to subscription buffers, by outcome.", "outcome")
	subDelivered = mSubEvents.With("delivered")
	subDropped   = mSubEvents.With("dropped")
	mSubTested   = obs.Default().Counter("neogeo_subscription_matches_tested_total",
		"Subscription predicates evaluated against published writes.").With()
)

// subBuffer bounds each subscription's event buffer. A consumer slower
// than its matching write rate loses the OLDEST buffered events first
// (counted, and reported on the subscription), so the stream always
// converges to recent state instead of stalling the write path.
const subBuffer = 64

// Subscription is a standing query: a continuous predicate over the
// records that integration and feedback commit. Exactly one of Key or
// Center selects the matching axis; Collection optionally restricts to
// one record type.
type Subscription struct {
	// Collection restricts matches to one collection, e.g. "Hotels"
	// (empty: any).
	Collection string
	// Key subscribes to one entity by routing key (e.g. a hotel name),
	// matched against the record's key field under the same
	// normalization the router uses.
	Key string
	// Center and RadiusMeters geofence the subscription: located records
	// within the circle match. RadiusMeters must be positive when Center
	// is set.
	Center       *geo.Point
	RadiusMeters float64
}

// Event is one matching write, projected for delivery: certainty and
// the most likely value per field, never raw documents (the source
// trace stays inside the feedback machinery, exactly as on the answer
// path).
type Event struct {
	// Seq orders events broker-wide; consumers see gaps where other
	// subscriptions matched or their own buffer dropped.
	Seq int64
	// Action is what the write did: "inserted", "merged", "confirmed",
	// "rejected" or "corrected" — the labels the commit observer
	// announces (see xmldb.Commit).
	Action string
	// Collection and RecordID identify the record.
	Collection string
	RecordID   int64
	// Certainty is the record's certainty after the write.
	Certainty float64
	// Location is the record's resolved position after the write, nil
	// when none.
	Location *geo.Point
	// Fields maps top-level fields to their most likely value.
	Fields map[string]string
	// At is the write's timestamp.
	At time.Time
}

// sub is one registered subscription.
type sub struct {
	id   string
	spec Subscription
	// normKey is the pre-normalized entity key ("" for geofences).
	normKey string
	// shards is where the subscription is registered (sorted).
	shards []int
	ch     chan Event
	// attached guards the single-consumer rule.
	attached bool
	dropped  int64
}

// Broker is the standing-query broadcaster: the single fan-out point
// between the write lanes and subscribers. One broker exists per
// system — the integration and feedback lanes publish every committed
// write into it, and all subscription state lives in it (the
// single-broadcaster invariant, docs/INVARIANTS.md). Registration is
// per shard: a write on lane i is tested against only byShard[i], so
// the per-write cost tracks the shard's subscriber count, not the
// system's.
//
// Delivery is best-effort push with exact predicates: a matching write
// is either in the subscription's buffer or counted as dropped; it is
// never silently lost. Geofenced subscriptions narrow to the covering
// shards only while the store's placement-drift epoch is zero at
// registration time (see shard.Store.Drift); drift afterwards can in
// principle strand a moved record's writes on an untested shard, which
// stays within best-effort semantics.
type Broker struct {
	store *shard.Store

	mu      sync.RWMutex
	closed  bool
	subs    map[string]*sub
	byShard []map[string]*sub
	// perShard[i] mirrors len(byShard[i]) so the write lanes can skip
	// publishing with one atomic load instead of taking the lock.
	perShard []atomic.Int64

	seq       atomic.Int64
	delivered atomic.Int64
	dropped   atomic.Int64
}

// NewBroker returns a broker over the store's shard layout.
func NewBroker(st *shard.Store) *Broker {
	b := &Broker{
		store:    st,
		subs:     make(map[string]*sub),
		byShard:  make([]map[string]*sub, st.NumShards()),
		perShard: make([]atomic.Int64, st.NumShards()),
	}
	for i := range b.byShard {
		b.byShard[i] = make(map[string]*sub)
	}
	return b
}

// Subscribe registers a standing query and returns its ID.
func (b *Broker) Subscribe(spec Subscription) (string, error) {
	hasKey := spec.Key != ""
	hasFence := spec.Center != nil
	if hasKey == hasFence {
		return "", fmt.Errorf("%w: needs exactly one of key or center, got key=%v center=%v", ErrInvalidSubscription, hasKey, hasFence)
	}
	if hasFence {
		if err := spec.Center.Validate(); err != nil {
			return "", fmt.Errorf("%w: center: %v", ErrInvalidSubscription, err)
		}
		if spec.RadiusMeters <= 0 {
			return "", fmt.Errorf("%w: radius must be positive, got %v", ErrInvalidSubscription, spec.RadiusMeters)
		}
	}

	s := &sub{
		spec:   spec,
		shards: b.shardsFor(spec),
		ch:     make(chan Event, subBuffer),
	}
	if hasKey {
		s.normKey = text.NormalizeName(spec.Key)
	}

	idBytes := make([]byte, 8)
	if _, err := rand.Read(idBytes); err != nil {
		return "", fmt.Errorf("readpath: minting subscription id: %w", err)
	}
	s.id = hex.EncodeToString(idBytes)

	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return "", ErrBrokerClosed
	}
	b.subs[s.id] = s
	for _, i := range s.shards {
		b.byShard[i][s.id] = s
		b.perShard[i].Add(1)
	}
	return s.id, nil
}

// shardsFor picks the shards whose writes can match a subscription.
func (b *Broker) shardsFor(spec Subscription) []int {
	n := b.store.NumShards()
	if n == 1 {
		return []int{0}
	}
	if spec.Key != "" {
		// The spatial router places located records by cell, so an
		// entity's records can be anywhere.
		return allShards(n)
	}
	if b.store.Drift() == 0 {
		return b.store.Router().CoverShards(*spec.Center, spec.RadiusMeters)
	}
	return allShards(n)
}

func allShards(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Unsubscribe cancels a subscription and closes its stream.
func (b *Broker) Unsubscribe(id string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, ok := b.subs[id]
	if !ok {
		return ErrUnknownSubscription
	}
	b.removeLocked(s)
	return nil
}

// removeLocked needs the exclusive lock: publishers send under the read
// lock, so closing here cannot race a send.
func (b *Broker) removeLocked(s *sub) {
	delete(b.subs, s.id)
	for _, i := range s.shards {
		delete(b.byShard[i], s.id)
		b.perShard[i].Add(-1)
	}
	close(s.ch)
}

// Attach claims a subscription's event stream. Each subscription
// streams to exactly one consumer at a time; a second Attach fails with
// ErrStreamBusy until release is called. The channel closes when the
// subscription is cancelled or the broker shuts down; release after
// that is a no-op.
func (b *Broker) Attach(id string) (events <-chan Event, release func(), err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, ok := b.subs[id]
	if !ok {
		return nil, nil, ErrUnknownSubscription
	}
	if s.attached {
		return nil, nil, ErrStreamBusy
	}
	s.attached = true
	return s.ch, func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		s.attached = false
	}, nil
}

// Publish fans one committed write out to the shard's subscriptions.
// The system's commit observer calls it after a shard's batch commits,
// with the record's post-write state; deletes are never announced, and
// a nil rec publishes nothing. Matching runs under a read lock and is
// O(subscriptions on this shard); the event payload is projected at
// most once per publish.
func (b *Broker) Publish(shardIdx int, action, collection string, rec *xmldb.Record, at time.Time) {
	if rec == nil || shardIdx < 0 || shardIdx >= len(b.byShard) {
		return
	}
	if b.perShard[shardIdx].Load() == 0 {
		return
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	var ev *Event
	for _, s := range b.byShard[shardIdx] {
		mSubTested.Inc()
		if !s.matches(collection, rec) {
			continue
		}
		if ev == nil {
			ev = b.project(action, collection, rec, at)
		}
		b.deliver(s, *ev)
	}
}

// matches evaluates the standing query's predicate against one record.
func (s *sub) matches(collection string, rec *xmldb.Record) bool {
	if s.spec.Collection != "" && s.spec.Collection != collection {
		return false
	}
	if s.normKey != "" {
		return text.NormalizeName(shard.DocKey(rec.Doc)) == s.normKey
	}
	return rec.Location != nil &&
		rec.Location.DistanceMeters(*s.spec.Center) <= s.spec.RadiusMeters
}

// deliver is a non-blocking send with drop-oldest overflow, so a stuck
// SSE consumer can never stall an integration or feedback lane.
func (s *sub) deliverInto(ev Event) bool {
	select {
	case s.ch <- ev:
		return true
	default:
	}
	select {
	case <-s.ch:
		atomic.AddInt64(&s.dropped, 1)
	default:
	}
	select {
	case s.ch <- ev:
		return true
	default:
		atomic.AddInt64(&s.dropped, 1)
		return false
	}
}

func (b *Broker) deliver(s *sub, ev Event) {
	before := atomic.LoadInt64(&s.dropped)
	if s.deliverInto(ev) {
		b.delivered.Add(1)
		subDelivered.Inc()
	}
	if d := atomic.LoadInt64(&s.dropped) - before; d > 0 {
		b.dropped.Add(d)
		subDropped.Add(float64(d))
	}
}

// project flattens a record into an event payload, mirroring the answer
// path's projection: the most likely value per field, provenance
// stripped.
func (b *Broker) project(action, collection string, rec *xmldb.Record, at time.Time) *Event {
	ev := &Event{
		Seq:        b.seq.Add(1),
		Action:     action,
		Collection: collection,
		RecordID:   rec.ID,
		Certainty:  float64(rec.Certainty),
		Fields:     make(map[string]string),
		At:         at,
	}
	if rec.Location != nil {
		p := *rec.Location
		ev.Location = &p
	}
	for _, c := range rec.Doc.Children {
		if c.Tag == "" || c.Tag == integrate.SourceTraceField {
			continue
		}
		v := c.TextContent()
		if top, ok := extract.MuxToDist(c).Top(); ok {
			v = top.Name
		}
		if v != "" {
			ev.Fields[c.Tag] = v
		}
	}
	return ev
}

// SubscriptionInfo describes one registered subscription.
type SubscriptionInfo struct {
	ID string
	// Spec is the registered predicate.
	Spec Subscription
	// Shards is where the subscription listens.
	Shards []int
	// Dropped counts events lost to this subscription's buffer bound.
	Dropped int64
	// Attached says whether a consumer currently holds the stream.
	Attached bool
}

// Info returns a subscription's registration state.
func (b *Broker) Info(id string) (SubscriptionInfo, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	s, ok := b.subs[id]
	if !ok {
		return SubscriptionInfo{}, ErrUnknownSubscription
	}
	return SubscriptionInfo{
		ID:       s.id,
		Spec:     s.spec,
		Shards:   append([]int(nil), s.shards...),
		Dropped:  atomic.LoadInt64(&s.dropped),
		Attached: s.attached,
	}, nil
}

// BrokerStats is the broadcaster's counter snapshot.
type BrokerStats struct {
	// Active is the current subscription count.
	Active int
	// Delivered and Dropped count events buffered for consumers vs lost
	// to buffer bounds, across all subscriptions ever.
	Delivered int64
	Dropped   int64
}

// Stats returns a snapshot of the broker's counters.
func (b *Broker) Stats() BrokerStats {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return BrokerStats{
		Active:    len(b.subs),
		Delivered: b.delivered.Load(),
		Dropped:   b.dropped.Load(),
	}
}

// ActiveOn reports whether any subscription listens on a shard — the
// write lanes' cheap pre-check before fetching records for publication.
func (b *Broker) ActiveOn(shardIdx int) bool {
	return shardIdx >= 0 && shardIdx < len(b.perShard) && b.perShard[shardIdx].Load() > 0
}

// Close cancels every subscription and refuses further registrations;
// streams observe their channels closing.
func (b *Broker) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for _, s := range b.subs {
		b.removeLocked(s)
	}
}
