// Package xmldb is the paper's Probabilistic Spatial XML Database: named
// collections of probabilistic XML records, each carrying a certainty
// factor assigned by the data-integration service and an optional indexed
// geographic location. A small XQuery-like language (query.go) supports
// the topk/score queries of the paper's QA scenario: spatial predicates
// are answered from an R-tree, field equalities from a value index
// (index.go) built for the fields queries constrain.
package xmldb

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geo"
	"repro/internal/pxml"
	"repro/internal/uncertain"
)

// Record is one stored probabilistic document.
//
// Records handed out by Get/Each/Batch are immutable snapshots: Update
// replaces the stored *Record rather than mutating it, so a pointer
// obtained under the lock stays safe to read after the lock is released.
// Callers must not mutate a returned record or its document; to change a
// record, Clone its Doc and call Tx.Update.
type Record struct {
	ID int64
	// Doc is the probabilistic XML tree; its root tag is the record type.
	Doc *pxml.Node
	// Certainty is the integration-assigned confidence in the record as a
	// whole ("The information contained in this DB is assigned to some
	// certainty factor", paper §Modules).
	Certainty uncertain.CF
	// Location is the record's resolved position, if any; indexed.
	Location *geo.Point
	// Updated is the last modification time.
	Updated time.Time
}

// Collection is a named set of records with a spatial index and a value
// index of the fields queries constrain (index.go).
type Collection struct {
	name    string
	records map[int64]*Record
	order   []int64 // insertion order for deterministic scans
	spatial *geo.RTree[int64]
	// values holds the value index, one postings per indexed field.
	values map[string]postings
	// unordered marks a restored order that does not ascend by ID; the
	// value index, which yields candidates by ID, is then bypassed.
	unordered bool
}

// DB is the database: a set of collections. All methods are safe for
// concurrent use.
type DB struct {
	mu          sync.RWMutex
	collections map[string]*Collection
	nextID      int64
	// idStride is the increment between assigned record IDs (default 1).
	// A sharded deployment gives each shard a distinct residue class
	// (SetIDSequence), so IDs stay globally unique across shards and a
	// record's shard is recoverable from its ID alone.
	idStride int64
	clock    func() time.Time
	// version counts successful mutations (insert, update, delete,
	// restore). It is the database's cache-invalidation spine: any reader
	// that records the version before a query and re-checks it later can
	// tell whether the data the query saw may have changed. The bump
	// happens at the END of each mutation, still under the write lock, so
	// a reader that observes version v is guaranteed to see every
	// mutation that produced v once it acquires the read lock.
	version atomic.Int64
	// locDrift counts updates that changed where a record IS relative to
	// where it LIVES: a record gains a location or its coordinates move,
	// while its home shard (fixed at insert) stays put. While it is zero,
	// "a located record within region R lives on a shard that routes
	// region R" holds, and the read path may narrow spatial cache plans
	// and geofenced subscriptions to the covering shards; once it moves,
	// that inference is unsound and the read path degrades to
	// whole-store invalidation. See shard.Store.Drift.
	locDrift atomic.Int64
	// onCommit observes every Batch's labelled writes (see OnCommit).
	onCommit func([]Commit)
}

// New returns an empty database.
func New() *DB {
	return &DB{
		collections: make(map[string]*Collection),
		nextID:      1,
		idStride:    1,
		clock:       time.Now,
	}
}

// SetIDSequence makes the database assign record IDs start, start+stride,
// start+2*stride, … instead of the default 1, 2, 3, …. It must be called
// before any record exists: re-seeding a live sequence could re-issue an
// ID. Shard i of an n-shard store uses SetIDSequence(i+1, n), giving every
// shard a disjoint residue class modulo n.
func (db *DB) SetIDSequence(start, stride int64) error {
	if start < 1 || stride < 1 {
		return fmt.Errorf("xmldb: invalid ID sequence (start %d, stride %d)", start, stride)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for name, c := range db.collections {
		if len(c.records) > 0 {
			return fmt.Errorf("xmldb: cannot re-seed ID sequence: collection %q is not empty", name)
		}
	}
	db.nextID = start
	db.idStride = stride
	return nil
}

// AlignIDSequence moves the ID sequence forward onto the residue class
// start mod stride — the smallest value >= the current next ID that the
// sequence start, start+stride, start+2*stride, … contains. Unlike
// SetIDSequence it is valid on a populated database, because it only ever
// skips IDs, never re-issues one; the restore path uses it to re-align a
// shard's sequence after Restore has set the next ID past the restored
// records.
func (db *DB) AlignIDSequence(start, stride int64) error {
	if start < 1 || stride < 1 {
		return fmt.Errorf("xmldb: invalid ID sequence (start %d, stride %d)", start, stride)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	next := start
	if db.nextID > start {
		steps := (db.nextID - start + stride - 1) / stride
		next = start + steps*stride
	}
	db.nextID = next
	db.idStride = stride
	return nil
}

// NextID returns the next record ID the database would assign — IDs
// strictly below it (on this database's residue class) have been
// allocated at some point, so a missing smaller ID names a record that
// existed and was deleted, while an ID at or past it was never issued.
// The feedback subsystem uses this to tell a stale answer from a bogus
// record reference.
func (db *DB) NextID() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.nextID
}

// SetClock overrides the timestamp source (tests).
func (db *DB) SetClock(clock func() time.Time) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.clock = clock
}

func (db *DB) collection(name string) *Collection {
	c, ok := db.collections[name]
	if !ok {
		c = &Collection{
			name:    name,
			records: make(map[int64]*Record),
			spatial: geo.NewRTree[int64](),
		}
		db.collections[name] = c
	}
	return c
}

// Collections returns the collection names, sorted.
func (db *DB) Collections() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.collectionNamesLocked()
}

// Collections is Tx's form of DB.Collections.
func (tx *Tx) Collections() []string {
	return tx.db.collectionNamesLocked()
}

// Tx is a view of the database inside a Batch call: the database lock is
// held once for the whole batch, so a run of reads and writes executes
// atomically and amortizes lock acquisition across the batch. Its
// Insert, Update and Delete are the database's only record writes. A Tx
// must not escape its Batch function, and Batch must not be nested or
// call the locking DB methods (the lock is not reentrant).
type Tx struct {
	db      *DB
	commits []Commit
}

// Commit is one write a Tx labelled for the database's commit observer.
type Commit struct {
	Collection string
	RecordID   int64
	// Action is what the write did: "inserted" or "merged" from
	// integration, "confirmed", "rejected" or "corrected" from feedback.
	Action string
}

// OnCommit installs the database's commit observer: Batch hands it the
// writes its function labelled (Tx.Label), after the lock is released
// and the writes have bumped the version, on the goroutine that called
// Batch — so a reader it wakes always sees the new state. It must be
// brief and must not start a Batch of its own. Install it before the
// first Batch; the field is not synchronised against running batches.
func (db *DB) OnCommit(fn func([]Commit)) {
	db.onCommit = fn
}

// Batch runs fn with the database exclusively locked, giving it an
// atomic, amortized view for multi-record work — the data-integration
// service's find-duplicate-then-update sequences, feedback applies and
// decay. The error from fn is returned verbatim; there is no rollback,
// so fn is responsible for leaving the database consistent on error.
// The writes fn labelled are announced to the commit observer whether
// or not fn failed: they are committed either way.
func (db *DB) Batch(fn func(*Tx) error) error {
	tx := &Tx{db: db}
	err := tx.run(fn)
	if db.onCommit != nil && len(tx.commits) > 0 {
		db.onCommit(tx.commits)
	}
	return err
}

// run holds the database lock for fn, releasing it even if fn panics.
func (tx *Tx) run(fn func(*Tx) error) error {
	tx.db.mu.Lock()
	defer tx.db.mu.Unlock()
	return fn(tx)
}

// Label records that this Tx wrote record id of collection, for the
// commit observer; action says what the write did (see Commit). A write
// left unlabelled — certainty decay — is not announced.
func (tx *Tx) Label(action, collection string, id int64) {
	tx.commits = append(tx.commits, Commit{Collection: collection, RecordID: id, Action: action})
}

// Insert stores a document in the named collection and returns its record.
func (tx *Tx) Insert(collection string, doc *pxml.Node, certainty uncertain.CF, loc *geo.Point) (*Record, error) {
	db := tx.db
	if collection == "" {
		return nil, fmt.Errorf("xmldb: empty collection name")
	}
	if doc == nil {
		return nil, fmt.Errorf("xmldb: nil document")
	}
	if err := doc.Validate(); err != nil {
		return nil, fmt.Errorf("xmldb: %w", err)
	}
	if err := certainty.Validate(); err != nil {
		return nil, fmt.Errorf("xmldb: %w", err)
	}
	if loc != nil {
		if err := loc.Validate(); err != nil {
			return nil, fmt.Errorf("xmldb: %w", err)
		}
	}
	c := db.collection(collection)
	rec := &Record{
		ID:        db.nextID,
		Doc:       doc,
		Certainty: certainty,
		Updated:   db.clock(),
	}
	db.nextID += db.idStride
	if loc != nil {
		p := *loc
		rec.Location = &p
		if err := c.spatial.Insert(geo.BBoxOf(p), rec.ID); err != nil {
			// collection() above may have created the (empty) collection:
			// the store changed even though this insert failed, so cached
			// views keyed to the old version must still be invalidated.
			db.version.Add(1)
			return nil, fmt.Errorf("xmldb: spatial index: %w", err)
		}
	}
	c.records[rec.ID] = rec
	c.order = append(c.order, rec.ID)
	c.reindex(rec.ID, nil, doc)
	db.version.Add(1)
	return rec, nil
}

// Version returns the database's mutation counter: a monotonic value
// that moves on every successful insert, update, delete and restore —
// including certainty decay and feedback applies, which are updates and
// deletes like any other. Reading it is one atomic load; it never
// blocks on the database lock.
func (db *DB) Version() int64 { return db.version.Load() }

// LocationDrift returns the count of updates that gave a record a
// location or moved its coordinates — see the locDrift field.
func (db *DB) LocationDrift() int64 { return db.locDrift.Load() }

// Get returns the record with the given ID from a collection.
func (db *DB) Get(collection string, id int64) (*Record, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.getLocked(collection, id)
}

// Get is Tx's form of DB.Get.
func (tx *Tx) Get(collection string, id int64) (*Record, bool) {
	return tx.db.getLocked(collection, id)
}

func (db *DB) getLocked(collection string, id int64) (*Record, bool) {
	c, ok := db.collections[collection]
	if !ok {
		return nil, false
	}
	r, ok := c.records[id]
	return r, ok
}

// Update replaces a record's document and certainty (and location when
// newLoc is non-nil). The record must exist. The stored record is
// replaced, not mutated, so previously returned records remain valid
// read-only snapshots.
func (tx *Tx) Update(collection string, id int64, doc *pxml.Node, certainty uncertain.CF, newLoc *geo.Point) error {
	db := tx.db
	if doc == nil {
		return fmt.Errorf("xmldb: nil document")
	}
	if err := doc.Validate(); err != nil {
		return fmt.Errorf("xmldb: %w", err)
	}
	if err := certainty.Validate(); err != nil {
		return fmt.Errorf("xmldb: %w", err)
	}
	c, ok := db.collections[collection]
	if !ok {
		return fmt.Errorf("xmldb: collection %q not found", collection)
	}
	rec, ok := c.records[id]
	if !ok {
		return fmt.Errorf("xmldb: record %d not found in %q", id, collection)
	}
	next := &Record{
		ID:        id,
		Doc:       doc,
		Certainty: certainty,
		Location:  rec.Location,
		Updated:   db.clock(),
	}
	if newLoc != nil {
		if err := newLoc.Validate(); err != nil {
			return fmt.Errorf("xmldb: %w", err)
		}
		if rec.Location != nil {
			c.spatial.Delete(geo.BBoxOf(*rec.Location), rec.ID)
		}
		p := *newLoc
		next.Location = &p
		if err := c.spatial.Insert(geo.BBoxOf(p), rec.ID); err != nil {
			// The old location was already deleted from the spatial
			// index above; readers must not keep serving cached views
			// of the pre-delete state.
			db.version.Add(1)
			return fmt.Errorf("xmldb: spatial index: %w", err)
		}
		if rec.Location == nil || *rec.Location != p {
			db.locDrift.Add(1)
		}
	}
	c.records[id] = next
	c.reindex(id, rec.Doc, doc)
	db.version.Add(1)
	return nil
}

// Delete removes a record.
func (tx *Tx) Delete(collection string, id int64) error {
	db := tx.db
	c, ok := db.collections[collection]
	if !ok {
		return fmt.Errorf("xmldb: collection %q not found", collection)
	}
	rec, ok := c.records[id]
	if !ok {
		return fmt.Errorf("xmldb: record %d not found in %q", id, collection)
	}
	if rec.Location != nil {
		c.spatial.Delete(geo.BBoxOf(*rec.Location), rec.ID)
	}
	delete(c.records, id)
	c.reindex(id, rec.Doc, nil)
	for i, oid := range c.order {
		if oid == id {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	db.version.Add(1)
	return nil
}

// Len returns the number of records in a collection.
func (db *DB) Len(collection string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.lenLocked(collection)
}

// Len is Tx's form of DB.Len.
func (tx *Tx) Len(collection string) int {
	return tx.db.lenLocked(collection)
}

func (db *DB) lenLocked(collection string) int {
	c, ok := db.collections[collection]
	if !ok {
		return 0
	}
	return len(c.records)
}

// Each visits a collection's records in insertion order until fn returns
// false. The callback must not mutate the database.
func (db *DB) Each(collection string, fn func(*Record) bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.eachLocked(collection, fn)
}

// Each is Tx's form of DB.Each. Unlike DB.Each, the callback runs under
// the batch's write lock and may stage IDs for later Tx writes, but must
// not call Tx write methods while iterating.
func (tx *Tx) Each(collection string, fn func(*Record) bool) {
	tx.db.eachLocked(collection, fn)
}

func (db *DB) eachLocked(collection string, fn func(*Record) bool) {
	c, ok := db.collections[collection]
	if !ok {
		return
	}
	for _, id := range c.order {
		if !fn(c.records[id]) {
			return
		}
	}
}

// Near returns the IDs of records within radiusMeters of p, nearest first.
func (db *DB) Near(collection string, p geo.Point, radiusMeters float64) []int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.nearLocked(collection, p, radiusMeters)
}

// Near is Tx's form of DB.Near.
func (tx *Tx) Near(collection string, p geo.Point, radiusMeters float64) []int64 {
	return tx.db.nearLocked(collection, p, radiusMeters)
}

func (db *DB) nearLocked(collection string, p geo.Point, radiusMeters float64) []int64 {
	c, ok := db.collections[collection]
	if !ok {
		return nil
	}
	return c.near(p, radiusMeters)
}

func (c *Collection) near(p geo.Point, radiusMeters float64) []int64 {
	ns := c.spatial.Within(p, radiusMeters)
	out := make([]int64, len(ns))
	for i, n := range ns {
		out[i] = n.Value
	}
	return out
}
