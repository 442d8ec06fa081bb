// Golden testdata: a miniature of xmldb's write path, where a Tx's
// labelled writes go to the database's one commit observer. Invoking
// the observer while db.mu is held is flagged; invoking it after the
// unlock, as the real Batch does, is clean.
package xmldb

import (
	"sync"
	"sync/atomic"
)

type Commit struct {
	RecordID int64
	Action   string
}

type DB struct {
	mu       sync.RWMutex
	version  atomic.Int64
	records  map[int64]string
	onCommit func([]Commit)
}

type Tx struct {
	db      *DB
	commits []Commit
}

func (tx *Tx) Insert(id int64) {
	tx.db.records[id] = "doc"
	tx.db.version.Add(1)
	tx.commits = append(tx.commits, Commit{RecordID: id, Action: "inserted"})
}

// Batch releases the lock (even if fn panics) before the observer
// hears the batch's labelled writes.
func (db *DB) Batch(fn func(*Tx) error) error {
	tx := &Tx{db: db}
	err := tx.run(fn)
	if db.onCommit != nil && len(tx.commits) > 0 {
		db.onCommit(tx.commits)
	}
	return err
}

func (tx *Tx) run(fn func(*Tx) error) error {
	tx.db.mu.Lock()
	defer tx.db.mu.Unlock()
	return fn(tx)
}

// BadBatch announces the writes while still holding db.mu.
func (db *DB) BadBatch(fn func(*Tx) error) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	tx := &Tx{db: db}
	err := fn(tx)
	db.onCommit(tx.commits) // want `commit hook onCommit invoked inside locked region db\.mu`
	return err
}
