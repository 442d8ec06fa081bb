package xmldb

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/pxml"
	"repro/internal/uncertain"
)

func batchDoc(name string) *pxml.Node {
	return pxml.Elem("Hotel", pxml.ElemText("Hotel_Name", name))
}

// insert, update and remove are one-write batches, for tests that
// write a single record at a time.
func insert(db *DB, coll string, doc *pxml.Node, cf uncertain.CF, loc *geo.Point) (rec *Record, err error) {
	err = db.Batch(func(tx *Tx) error {
		rec, err = tx.Insert(coll, doc, cf, loc)
		return err
	})
	return rec, err
}

func update(db *DB, coll string, id int64, doc *pxml.Node, cf uncertain.CF, loc *geo.Point) error {
	return db.Batch(func(tx *Tx) error { return tx.Update(coll, id, doc, cf, loc) })
}

func remove(db *DB, coll string, id int64) error {
	return db.Batch(func(tx *Tx) error { return tx.Delete(coll, id) })
}

func TestBatchAtomicInsertUpdate(t *testing.T) {
	db := New()
	var id int64
	err := db.Batch(func(tx *Tx) error {
		rec, err := tx.Insert("Hotels", batchDoc("Axel"), 0.5, nil)
		if err != nil {
			return err
		}
		id = rec.ID
		if got := tx.Len("Hotels"); got != 1 {
			return fmt.Errorf("Len inside batch = %d, want 1", got)
		}
		return tx.Update("Hotels", id, batchDoc("Axel Hotel"), 0.7, nil)
	})
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	rec, ok := db.Get("Hotels", id)
	if !ok {
		t.Fatalf("record %d missing after batch", id)
	}
	if got, _ := rec.Doc.FirstChild("Hotel_Name"); got.TextContent() != "Axel Hotel" {
		t.Fatalf("Hotel_Name = %q, want %q", got.TextContent(), "Axel Hotel")
	}
	if float64(rec.Certainty) != 0.7 {
		t.Fatalf("Certainty = %v, want 0.7", rec.Certainty)
	}
}

func TestBatchErrorPropagates(t *testing.T) {
	db := New()
	wantErr := fmt.Errorf("boom")
	if err := db.Batch(func(tx *Tx) error { return wantErr }); err != wantErr {
		t.Fatalf("Batch error = %v, want %v", err, wantErr)
	}
}

// The commit observer hears exactly the labelled writes of a batch, in
// label order, once the lock is free and the version has moved — the
// unlabelled write (decay's shape) and a batch that labels nothing stay
// silent, and a failing batch still announces what it committed.
func TestBatchAnnouncesLabelledWritesAfterUnlock(t *testing.T) {
	db := New()
	var heard [][]Commit
	db.OnCommit(func(commits []Commit) {
		if !db.mu.TryLock() {
			t.Error("observer ran with the database locked")
		} else {
			db.mu.Unlock()
		}
		if db.Version() == 0 {
			t.Error("observer ran before the version moved")
		}
		heard = append(heard, commits)
	})
	wantErr := fmt.Errorf("late failure")
	err := db.Batch(func(tx *Tx) error {
		a, err := tx.Insert("Hotels", batchDoc("Axel"), 0.5, nil)
		if err != nil {
			return err
		}
		tx.Label("inserted", "Hotels", a.ID)
		b, err := tx.Insert("Hotels", batchDoc("Movenpick"), 0.5, nil)
		if err != nil {
			return err
		}
		if err := tx.Update("Hotels", a.ID, batchDoc("Axel Hotel"), 0.6, nil); err != nil {
			return err
		}
		tx.Label("merged", "Hotels", a.ID)
		_ = b // written but left unlabelled
		return wantErr
	})
	if err != wantErr {
		t.Fatalf("Batch error = %v, want %v", err, wantErr)
	}
	want := []Commit{{"Hotels", 1, "inserted"}, {"Hotels", 1, "merged"}}
	if len(heard) != 1 || fmt.Sprint(heard[0]) != fmt.Sprint(want) {
		t.Fatalf("observer heard %v, want one call with %v", heard, want)
	}
	if err := update(db, "Hotels", 2, batchDoc("Movenpick Hotel"), 0.7, nil); err != nil {
		t.Fatal(err)
	}
	if len(heard) != 1 {
		t.Fatalf("unlabelled batch was announced: %v", heard[1:])
	}
}

// A panicking batch function must not leave the database locked.
func TestBatchPanicReleasesLock(t *testing.T) {
	db := New()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic swallowed")
			}
		}()
		_ = db.Batch(func(*Tx) error { panic("boom") })
	}()
	if !db.mu.TryLock() {
		t.Fatal("database still locked after a panicking batch")
	}
	db.mu.Unlock()
}

// Update must replace the stored record, not mutate it, so a record
// pointer read before the update remains a stable snapshot — this is what
// makes concurrent readers safe while the integration batcher writes.
func TestUpdateIsCopyOnWrite(t *testing.T) {
	db := New()
	rec, err := insert(db, "Hotels", batchDoc("Axel"), 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := db.Get("Hotels", rec.ID)
	if err := update(db, "Hotels", rec.ID, batchDoc("Movenpick"), 0.9, nil); err != nil {
		t.Fatal(err)
	}
	if got, _ := before.Doc.FirstChild("Hotel_Name"); got.TextContent() != "Axel" {
		t.Fatalf("old snapshot mutated: Hotel_Name = %q", got.TextContent())
	}
	if float64(before.Certainty) != 0.5 {
		t.Fatalf("old snapshot mutated: Certainty = %v", before.Certainty)
	}
	after, _ := db.Get("Hotels", rec.ID)
	if got, _ := after.Doc.FirstChild("Hotel_Name"); got.TextContent() != "Movenpick" {
		t.Fatalf("update lost: Hotel_Name = %q", got.TextContent())
	}
}

// Readers holding record snapshots race-free against concurrent updates:
// run with -race.
func TestConcurrentReadersDuringUpdates(t *testing.T) {
	db := New()
	rec, err := insert(db, "Hotels", batchDoc("Axel"), 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r, ok := db.Get("Hotels", rec.ID)
				if !ok {
					t.Error("record vanished")
					return
				}
				if n, _ := r.Doc.FirstChild("Hotel_Name"); n.TextContent() == "" {
					t.Error("empty name")
					return
				}
				db.Each("Hotels", func(r *Record) bool { _ = r.Certainty; return true })
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if err := update(db, "Hotels", rec.ID, batchDoc(fmt.Sprintf("Hotel %d", i)), 0.6, nil); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
