package feedback

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/disambig"
	"repro/internal/gazetteer"
	"repro/internal/geo"
	"repro/internal/integrate"
	"repro/internal/obs"
	"repro/internal/pxml"
	"repro/internal/shard"
	"repro/internal/uncertain"
	"repro/internal/xmldb"
)

// Feedback-loop metric families: verdict intake, what each flush
// applied (by kind, plus the stale drops), and how well the per-lane
// batching amortizes.
var (
	mFBAccepted = obs.Default().Counter("neogeo_feedback_accepted_total",
		"Verdicts accepted into the ledger.").With()
	mFBApplied = obs.Default().Counter("neogeo_feedback_applied_total",
		"Verdicts whose effects reached the store, by kind.", "kind")
	fbConfirm = mFBApplied.With("confirm")
	fbReject  = mFBApplied.With("reject")
	fbCorrect = mFBApplied.With("correct")
	fbStale   = mFBApplied.With("dropped_stale")

	mFBFlushSeconds = obs.Default().Histogram("neogeo_feedback_flush_seconds",
		"Wall time of one flush across all selected lanes.", nil).With()
	mFBBatchVerdicts = obs.Default().Histogram("neogeo_feedback_batch_verdicts",
		"Verdicts folded into one per-lane apply batch.",
		obs.ExpBuckets(1, 2, 8)).With()
)

// spanFeedbackFlush names the background timeline one flush records.
const spanFeedbackFlush = "feedback_flush"

// DefaultBatch is how many buffered verdicts trigger an automatic
// per-lane apply (matching the integration lanes' default batch).
const DefaultBatch = 16

// verdictCF is the certainty weight of one human verdict before
// attenuation by the submitting user's reliability. Human feedback is
// strong evidence — stronger than one more anonymous report — but not
// absolute: a single confirm must not pin a record at certainty 1.
const verdictCF uncertain.CF = 0.6

// Stats is the engine's counters snapshot, surfaced through the
// system's stats endpoint.
type Stats struct {
	// Accepted counts verdicts accepted into the ledger by this process.
	Accepted int64
	// Replayed counts ledger entries parked at boot for re-application.
	Replayed int64
	// Applied counts verdicts whose effects reached the store.
	Applied int64
	// Pending is the number of buffered verdicts awaiting an apply,
	// including deferred replays.
	Pending int
	// Deferred is the subset of Pending parked because their record has
	// not been re-integrated yet (recovery in progress).
	Deferred int
	// DroppedStale counts verdicts whose record vanished between accept
	// and apply (decay deleted it) — acknowledged but unappliable.
	DroppedStale int64
	// Confirmed/Rejected/Corrected break down applied verdicts by kind.
	Confirmed int64
	Rejected  int64
	Corrected int64
	// AppliedSeq is the watermark: every ledger entry at or below it has
	// been applied (or dropped stale). Checkpoints record it so recovery
	// replays exactly the entries above it.
	AppliedSeq int64
}

// pending is one buffered verdict awaiting its lane's batched apply.
type pending struct {
	e Entry
	// replay marks entries parked at boot from the ledger: a missing
	// record defers them (the WAL replay has not re-integrated it yet)
	// instead of dropping them.
	replay bool
	// tries counts flushes that deferred this replay entry; past
	// maxReplayTries it is dropped as stale so a record that never
	// comes back (dead-lettered message, nondeterministic replay) cannot
	// wedge the applied watermark forever.
	tries int
}

// maxReplayTries bounds how many flushes a parked replay entry may
// defer. At the serving layer's default 250ms drain cadence this is
// about a minute — far longer than any recovery drain needs.
const maxReplayTries = 256

// Engine accepts, logs, routes and applies verdicts. All methods are
// safe for concurrent use. Applies serialize with each other and with
// WithFrozen (the checkpoint image writer), so the applied watermark is
// exact with respect to the store image.
type Engine struct {
	store  *shard.Store
	trust  *uncertain.TrustModel
	gaz    *gazetteer.Gazetteer
	priors *disambig.Priors
	ledger Ledger
	clock  func() time.Time
	batch  int

	// applyMu serialises batched applies and checkpoint freezes.
	applyMu sync.Mutex

	// mu guards the buffers, sequence numbers and counters.
	mu      sync.Mutex
	lanes   [][]pending
	nextSeq int64
	applied int64          // watermark: all seqs <= applied resolved
	done    map[int64]bool // resolved seqs above the watermark
	stats   Stats
}

// Config parameterises the engine.
type Config struct {
	// Store is the (possibly sharded) record store verdicts apply to.
	Store *shard.Store
	// Trust is the system's source-trust model, which verdicts feed.
	Trust *uncertain.TrustModel
	// Gaz resolves record place names back to gazetteer entries for the
	// reinforcement signal.
	Gaz *gazetteer.Gazetteer
	// Priors is the disambiguation reinforcement memory to feed.
	Priors *disambig.Priors
	// Ledger is the accepted-verdict log (NewMemLedger when the system
	// is not durable).
	Ledger Ledger
	// Batch is the per-lane auto-apply threshold (default DefaultBatch).
	Batch int
	// Clock overrides the time source (tests).
	Clock func() time.Time
	// AppliedSeq seeds the watermark from a recovered checkpoint: ledger
	// entries at or below it are already inside the restored image.
	AppliedSeq int64
	// AppliedDone seeds the resolved set above the watermark — entries a
	// checkpoint captured while an older replay entry was still
	// deferring. Park skips them, so a watermark hole never causes a
	// double apply across crashes.
	AppliedDone []int64
}

// NewEngine builds an engine.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Store == nil || cfg.Trust == nil || cfg.Gaz == nil || cfg.Priors == nil || cfg.Ledger == nil {
		return nil, fmt.Errorf("feedback: nil dependency")
	}
	e := &Engine{
		store:   cfg.Store,
		trust:   cfg.Trust,
		gaz:     cfg.Gaz,
		priors:  cfg.Priors,
		ledger:  cfg.Ledger,
		clock:   cfg.Clock,
		batch:   cfg.Batch,
		lanes:   make([][]pending, cfg.Store.NumShards()),
		nextSeq: cfg.AppliedSeq + 1,
		applied: cfg.AppliedSeq,
		done:    make(map[int64]bool),
	}
	if e.clock == nil {
		e.clock = time.Now
	}
	if e.batch <= 0 {
		e.batch = DefaultBatch
	}
	for _, seq := range cfg.AppliedDone {
		if seq > e.applied {
			e.done[seq] = true
		}
	}
	e.stats.AppliedSeq = e.applied
	return e, nil
}

// Park buffers ledger entries recovered at boot: entries at or below
// the restored watermark are already in the store image and are
// skipped; the rest await re-application on later flushes (deferring as
// long as their record has not been re-integrated from the queue WAL).
func (e *Engine) Park(entries []Entry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, ent := range entries {
		if ent.Seq >= e.nextSeq {
			e.nextSeq = ent.Seq + 1
		}
		if ent.Seq <= e.applied || e.done[ent.Seq] {
			continue
		}
		lane := e.store.ShardFor(ent.Verdict.RecordID)
		e.lanes[lane] = append(e.lanes[lane], pending{e: ent, replay: true})
		e.stats.Replayed++
	}
}

// Submit validates a verdict against the live store, appends it durably
// to the ledger and buffers it on its record's home-shard lane for the
// next batched apply (applying the lane immediately once it holds a
// full batch). It returns the verdict's ledger sequence number.
//
// Typed failures: ErrInvalidVerdict for malformed payloads,
// ErrUnknownRecord for an ID that was never allocated, ErrStaleAnswer
// for a record that existed but has been deleted since the answer
// exposing it was generated.
func (e *Engine) Submit(v Verdict) (int64, error) {
	if err := validateShape(v); err != nil {
		return 0, err
	}
	if v.Lat != nil && v.Lon != nil {
		if _, err := geo.NewPoint(*v.Lat, *v.Lon); err != nil {
			return 0, fmt.Errorf("%w: %v", ErrInvalidVerdict, err)
		}
	}
	lane := e.store.ShardFor(v.RecordID)
	rec, err := e.checkRecord(lane, v.RecordID)
	if err != nil {
		return 0, err
	}

	e.mu.Lock()
	seq := e.nextSeq
	ent := Entry{Seq: seq, At: e.clock().UTC(), Verdict: v, Key: entryKey(rec.Doc)}
	if err := e.ledger.Append(ent); err != nil {
		e.mu.Unlock()
		return 0, err
	}
	e.nextSeq++
	e.lanes[lane] = append(e.lanes[lane], pending{e: ent})
	e.stats.Accepted++
	mFBAccepted.Inc()
	full := len(e.lanes[lane]) >= e.batch
	e.mu.Unlock()

	if full {
		e.flushLanes(map[int]bool{lane: true})
	}
	return seq, nil
}

// checkRecord classifies a record reference against the live store,
// returning the record when it exists.
func (e *Engine) checkRecord(lane int, id int64) (*xmldb.Record, error) {
	db := e.store.Shard(lane)
	for _, coll := range db.Collections() {
		if rec, ok := db.Get(coll, id); ok {
			return rec, nil
		}
	}
	if id < db.NextID() {
		return nil, fmt.Errorf("%w: record %d", ErrStaleAnswer, id)
	}
	return nil, fmt.Errorf("%w: record %d", ErrUnknownRecord, id)
}

// entryKey fingerprints a record's entity identity: the text of its
// first non-metadata child element — the domain key field for every
// built-in domain, since templates emit it first. Replay compares it so
// a record ID that was re-issued to a different entity during crash
// recovery is detected instead of silently mutated.
func entryKey(doc *pxml.Node) string {
	if doc == nil {
		return ""
	}
	for _, c := range doc.Children {
		switch c.Tag {
		case "", integrate.SourceTraceField, "Observed_At", "Geo":
			continue
		}
		if t := c.TextContent(); t != "" {
			return t
		}
	}
	return ""
}

// Flush applies every buffered verdict, one amortized database batch
// per home shard with distinct shards applying in parallel — the same
// lane discipline as the integration pipeline. Replay entries whose
// record is still missing stay parked for the next flush. It returns
// how many verdicts were applied.
func (e *Engine) Flush() int {
	return e.flushLanes(nil)
}

// flushLanes applies the buffered verdicts of the selected lanes (nil:
// all lanes).
func (e *Engine) flushLanes(only map[int]bool) int {
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	// Flushes run off any request path (timer or explicit call), so the
	// stage roots its own trace; applyMu is not in the tracer's hot-lock
	// set, so holding it around span recording is within discipline.
	//lint:ignore ctxflow flushes are background work with no caller deadline; the root only scopes the trace
	_, st := obs.Stage(context.Background(), spanFeedbackFlush, mFBFlushSeconds)
	defer st.End(nil)

	e.mu.Lock()
	batches := make([][]pending, len(e.lanes))
	for i := range e.lanes {
		if only != nil && !only[i] {
			continue
		}
		batches[i], e.lanes[i] = e.lanes[i], nil
	}
	e.mu.Unlock()

	type laneResult struct {
		outcomes []outcome
		kept     []pending
	}
	results := make([]laneResult, len(batches))
	var wg sync.WaitGroup
	for i, batch := range batches {
		if len(batch) == 0 {
			continue
		}
		mFBBatchVerdicts.Observe(float64(len(batch)))
		wg.Add(1)
		go func(lane int, batch []pending) {
			defer wg.Done()
			results[lane].outcomes, results[lane].kept = e.applyLane(lane, batch)
		}(i, batch)
	}
	//lint:ignore lockdiscipline applyMu exists to serialize whole flushes; waiting for the lanes is the critical section
	wg.Wait()

	applied := 0
	e.mu.Lock()
	for i, res := range results {
		// Deferred replays go back to the front of their lane so they
		// stay ahead of verdicts accepted meanwhile (seq order per lane).
		if len(res.kept) > 0 {
			e.lanes[i] = append(append([]pending(nil), res.kept...), e.lanes[i]...)
		}
		for _, oc := range res.outcomes {
			e.markDoneLocked(oc.seq)
			switch oc.kind {
			case appliedConfirm:
				e.stats.Applied++
				e.stats.Confirmed++
				fbConfirm.Inc()
				applied++
			case appliedReject:
				e.stats.Applied++
				e.stats.Rejected++
				fbReject.Inc()
				applied++
			case appliedCorrect:
				e.stats.Applied++
				e.stats.Corrected++
				fbCorrect.Inc()
				applied++
			case droppedStale:
				e.stats.DroppedStale++
				fbStale.Inc()
			}
		}
	}
	e.stats.AppliedSeq = e.applied
	e.mu.Unlock()
	st.SetInt("applied", applied)
	return applied
}

// outcomeKind classifies one apply attempt.
type outcomeKind int

const (
	appliedConfirm outcomeKind = iota
	appliedReject
	appliedCorrect
	droppedStale
)

type outcome struct {
	seq  int64
	kind outcomeKind
}

// applyLane folds one lane's verdicts into its shard under a single
// database lock acquisition, labelling each applied verdict for the
// shard's commit observer. The caller serialises per-lane calls
// (applyMu); the trust model and priors are internally synchronised, so
// cross-lane updates to them are safe.
func (e *Engine) applyLane(lane int, batch []pending) (outcomes []outcome, kept []pending) {
	_ = e.store.Shard(lane).Batch(func(tx *xmldb.Tx) error {
		colls := tx.Collections()
		for _, p := range batch {
			rec, coll := findRecord(tx, colls, p.e.Verdict.RecordID)
			if rec == nil {
				if p.replay && p.tries+1 < maxReplayTries {
					p.tries++
					kept = append(kept, p)
				} else {
					outcomes = append(outcomes, outcome{seq: p.e.Seq, kind: droppedStale})
				}
				continue
			}
			// Replay integrity: if recovery re-issued this ID to a
			// different entity (nondeterministic re-integration), dropping
			// the verdict is safe; applying it to the wrong record is not.
			if p.replay && p.e.Key != "" && entryKey(rec.Doc) != p.e.Key {
				outcomes = append(outcomes, outcome{seq: p.e.Seq, kind: droppedStale})
				continue
			}
			kind, err := e.applyOne(tx, coll, rec, p.e.Verdict)
			if err != nil {
				// An apply error is a store-level invariant failure, not a
				// bad verdict (those were filtered at Submit); count the
				// entry resolved so the watermark cannot wedge.
				outcomes = append(outcomes, outcome{seq: p.e.Seq, kind: droppedStale})
				continue
			}
			outcomes = append(outcomes, outcome{seq: p.e.Seq, kind: kind})
			tx.Label(kind.action(), coll, rec.ID)
		}
		return nil
	})
	return outcomes, kept
}

// action labels an applied outcome's write for the commit observer.
func (k outcomeKind) action() string {
	switch k {
	case appliedConfirm:
		return "confirmed"
	case appliedReject:
		return "rejected"
	case appliedCorrect:
		return "corrected"
	}
	return ""
}

// findRecord locates a record by ID across the shard's collections.
func findRecord(tx *xmldb.Tx, colls []string, id int64) (*xmldb.Record, string) {
	for _, coll := range colls {
		if rec, ok := tx.Get(coll, id); ok {
			return rec, coll
		}
	}
	return nil, ""
}

// applyOne applies a single verdict to its record: the Bayesian
// certainty update, the source-reliability feedback, and (for confirms
// and location corrections) the disambiguation reinforcement.
func (e *Engine) applyOne(tx *xmldb.Tx, coll string, rec *xmldb.Record, v Verdict) (outcomeKind, error) {
	rel := e.trust.Reliability(v.Source)
	trace := integrate.TraceSources(rec.Doc)
	switch v.Kind {
	case KindConfirm:
		// MYCIN-combine the verdict as positive evidence attenuated by
		// the confirming user's own reliability.
		ev := uncertain.Attenuate(verdictCF, rel)
		if err := tx.Update(coll, rec.ID, rec.Doc, uncertain.Combine(rec.Certainty, ev), nil); err != nil {
			return 0, err
		}
		for _, src := range trace {
			e.trust.Confirm(src)
		}
		if rec.Location != nil {
			e.reinforce(rec.Doc, *rec.Location)
		}
		return appliedConfirm, nil

	case KindReject:
		ev := uncertain.Attenuate(-verdictCF, rel)
		if err := tx.Update(coll, rec.ID, rec.Doc, uncertain.Combine(rec.Certainty, ev), nil); err != nil {
			return 0, err
		}
		for _, src := range trace {
			e.trust.Contradict(src)
		}
		return appliedReject, nil

	case KindCorrect:
		doc := rec.Doc.Clone()
		if v.Field != "" {
			if n, _ := doc.FirstChild(v.Field); n != nil {
				n.Children = []*pxml.Node{pxml.Text(v.Value)}
			} else {
				doc.Add(pxml.ElemText(v.Field, v.Value))
			}
		}
		var newLoc *geo.Point
		if v.Lat != nil && v.Lon != nil {
			p, err := geo.NewPoint(*v.Lat, *v.Lon)
			if err != nil {
				return 0, err
			}
			newLoc = &p
			setGeo(doc, p)
		}
		// The corrector affirms the entity exists while disputing a
		// detail: mild positive evidence on the record, contradiction for
		// the sources whose detail was corrected.
		ev := uncertain.Attenuate(verdictCF, rel*0.5)
		if err := tx.Update(coll, rec.ID, doc, uncertain.Combine(rec.Certainty, ev), newLoc); err != nil {
			return 0, err
		}
		for _, src := range trace {
			e.trust.Contradict(src)
		}
		if newLoc != nil {
			// A corrected location is the strongest reinforcement signal:
			// the user told us which interpretation the place name meant.
			e.reinforce(doc, *newLoc)
		}
		return appliedCorrect, nil
	}
	return 0, fmt.Errorf("feedback: unreachable kind %q", v.Kind)
}

// setGeo rewrites the document's Geo element to the corrected point so
// the displayed document agrees with the indexed location.
func setGeo(doc *pxml.Node, p geo.Point) {
	lat := pxml.ElemText("Lat", fmt.Sprintf("%.5f", p.Lat))
	lon := pxml.ElemText("Lon", fmt.Sprintf("%.5f", p.Lon))
	if n, _ := doc.FirstChild("Geo"); n != nil {
		n.Children = []*pxml.Node{lat, lon}
		return
	}
	doc.Add(pxml.Elem("Geo", lat, lon))
}

// reinforce feeds the disambiguation priors: every place name the
// record carries that the gazetteer knows is credited toward the
// gazetteer reference nearest the validated location, so repeated
// confirmations of "Paris → Paris (TX)" change how future "Paris"
// mentions resolve.
func (e *Engine) reinforce(doc *pxml.Node, loc geo.Point) {
	for _, c := range doc.Children {
		switch c.Tag {
		case "", integrate.SourceTraceField, "Observed_At", "Geo":
			continue
		}
		name := c.TextContent()
		if name == "" {
			continue
		}
		entries := e.gaz.Lookup(name)
		if len(entries) == 0 {
			continue
		}
		best := entries[0]
		bestD := best.Location.DistanceMeters(loc)
		for _, cand := range entries[1:] {
			if d := cand.Location.DistanceMeters(loc); d < bestD {
				best, bestD = cand, d
			}
		}
		e.priors.Reinforce(name, best.ID, 1)
	}
}

// markDoneLocked records a resolved sequence number and advances the
// contiguous watermark. Caller holds e.mu.
func (e *Engine) markDoneLocked(seq int64) {
	if seq <= e.applied {
		return
	}
	e.done[seq] = true
	for e.done[e.applied+1] {
		e.applied++
		delete(e.done, e.applied)
	}
}

// Stats returns a counters snapshot.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.stats
	st.Pending, st.Deferred = 0, 0
	for _, lane := range e.lanes {
		st.Pending += len(lane)
		for _, p := range lane {
			if p.replay {
				st.Deferred++
			}
		}
	}
	st.AppliedSeq = e.applied
	return st
}

// WithFrozen runs fn with applies excluded, handing it the exact
// applied watermark plus the resolved sequence numbers above it (holes
// left by still-deferring replay entries) — the checkpoint image
// writer records both so the snapshot can never disagree about which
// verdicts are inside the image, even while a replay entry defers.
func (e *Engine) WithFrozen(fn func(appliedSeq int64, done []int64) error) error {
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	e.mu.Lock()
	seq := e.applied
	done := make([]int64, 0, len(e.done))
	for s := range e.done {
		done = append(done, s)
	}
	e.mu.Unlock()
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	return fn(seq, done)
}

// AdoptApplied raises the watermark (and resolved set) to a restored
// image's recorded values (facade Restore of a newer snapshot),
// discarding buffered entries the image already covers.
func (e *Engine) AdoptApplied(seq int64, done []int64) {
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if seq > e.applied {
		e.applied = seq
		if e.nextSeq <= seq {
			e.nextSeq = seq + 1
		}
		for s := range e.done {
			if s <= seq {
				delete(e.done, s)
			}
		}
	}
	covered := make(map[int64]bool, len(done))
	for _, s := range done {
		covered[s] = true
		if s > e.applied {
			e.done[s] = true
		}
	}
	for i, lane := range e.lanes {
		keep := lane[:0]
		for _, p := range lane {
			if p.e.Seq > e.applied && !covered[p.e.Seq] {
				keep = append(keep, p)
			}
		}
		e.lanes[i] = keep
	}
	e.stats.AppliedSeq = e.applied
}

// Close releases the ledger.
func (e *Engine) Close() error {
	return e.ledger.Close()
}
