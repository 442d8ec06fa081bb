package xmldb

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/pxml"
	"repro/internal/uncertain"
)

func snapClock() func() time.Time {
	t := time.Unix(1_300_000_000, 0).UTC()
	return func() time.Time { t = t.Add(time.Second); return t }
}

func fillSnapshotDB(t *testing.T, seed int64, n int) *DB {
	t.Helper()
	db := New()
	db.SetClock(snapClock())
	rng := rand.New(rand.NewSource(seed))
	colls := []string{"Hotels", "RoadReports", "FarmReports"}
	for i := 0; i < n; i++ {
		coll := colls[rng.Intn(len(colls))]
		a := pxml.ElemText("City", "Berlin")
		a.Prob = 0.7
		b := pxml.ElemText("City", "Paris")
		b.Prob = 0.3
		doc := pxml.Elem("Rec",
			pxml.ElemText("Name", strings.Repeat("x", 1+rng.Intn(8))),
			pxml.Mux(a, b),
		)
		var loc *geo.Point
		if rng.Intn(2) == 0 {
			p, err := geo.NewPoint(rng.Float64()*170-85, rng.Float64()*340-170)
			if err != nil {
				t.Fatal(err)
			}
			loc = &p
		}
		if _, err := insert(db, coll, doc, uncertain.CF(rng.Float64()), loc); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestSnapshotRoundTrip: restore(snapshot(db)) reproduces every record,
// and a second snapshot is byte-identical (the fixpoint property).
func TestSnapshotRoundTrip(t *testing.T) {
	db := fillSnapshotDB(t, 7, 50)

	var first bytes.Buffer
	if err := db.Snapshot(&first); err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	restored := New()
	if err := restored.Restore(bytes.NewReader(first.Bytes())); err != nil {
		t.Fatalf("restore: %v", err)
	}

	for _, coll := range db.Collections() {
		if got, want := restored.Len(coll), db.Len(coll); got != want {
			t.Errorf("%s: %d records after restore, want %d", coll, got, want)
		}
		db.Each(coll, func(orig *Record) bool {
			got, ok := restored.Get(coll, orig.ID)
			if !ok {
				t.Errorf("%s/%d missing after restore", coll, orig.ID)
				return true
			}
			origXML, _ := pxml.Marshal(orig.Doc)
			gotXML, _ := pxml.Marshal(got.Doc)
			if origXML != gotXML {
				t.Errorf("%s/%d doc mismatch:\n%s\nvs\n%s", coll, orig.ID, origXML, gotXML)
			}
			if got.Certainty != orig.Certainty {
				t.Errorf("%s/%d certainty %v != %v", coll, orig.ID, got.Certainty, orig.Certainty)
			}
			if !got.Updated.Equal(orig.Updated) {
				t.Errorf("%s/%d updated %v != %v", coll, orig.ID, got.Updated, orig.Updated)
			}
			if (got.Location == nil) != (orig.Location == nil) {
				t.Errorf("%s/%d location presence mismatch", coll, orig.ID)
			} else if got.Location != nil && *got.Location != *orig.Location {
				t.Errorf("%s/%d location %v != %v", coll, orig.ID, *got.Location, *orig.Location)
			}
			return true
		})
	}

	var second bytes.Buffer
	if err := restored.Snapshot(&second); err != nil {
		t.Fatalf("re-snapshot: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("snapshot is not a fixpoint: restore+snapshot differs")
	}
}

// TestSnapshotRestoresSpatialIndex: Near must work against restored data.
func TestSnapshotRestoresSpatialIndex(t *testing.T) {
	db := New()
	db.SetClock(snapClock())
	berlin, _ := geo.NewPoint(52.52, 13.405)
	paris, _ := geo.NewPoint(48.8566, 2.3522)
	r1, err := insert(db, "Hotels", pxml.ElemText("Name", "A"), 0.9, &berlin)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := insert(db, "Hotels", pxml.ElemText("Name", "B"), 0.9, &paris); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := db.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := New()
	if err := restored.Restore(&buf); err != nil {
		t.Fatal(err)
	}

	near := restored.Near("Hotels", berlin, 50_000)
	if len(near) != 1 || near[0] != r1.ID {
		t.Errorf("Near(berlin) = %v, want [%d]", near, r1.ID)
	}
}

// TestSnapshotRestorePreservesIDSequence: inserts after restore must not
// collide with restored IDs.
func TestSnapshotRestorePreservesIDSequence(t *testing.T) {
	db := fillSnapshotDB(t, 3, 10)
	var buf bytes.Buffer
	if err := db.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := New()
	if err := restored.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	rec, err := insert(restored, "Hotels", pxml.ElemText("Name", "new"), 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The new ID must be fresh across all collections.
	for _, coll := range db.Collections() {
		if _, clash := db.Get(coll, rec.ID); clash {
			t.Fatalf("new id %d collides with restored record in %s", rec.ID, coll)
		}
	}
}

// TestRestoreRejectsCorruption: failure injection — every corrupted image
// must be rejected, and a failed restore must leave the target unchanged.
func TestRestoreRejectsCorruption(t *testing.T) {
	db := fillSnapshotDB(t, 11, 8)
	var buf bytes.Buffer
	if err := db.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	cases := map[string]string{
		"truncated":        good[:len(good)/2],
		"empty":            "",
		"not xml":          "this is not a snapshot",
		"bad certainty":    strings.Replace(good, `certainty="`, `certainty="7`, 1),
		"bad timestamp":    strings.Replace(good, `updated="`, `updated="yesterday-`, 1),
		"negative id":      strings.Replace(good, `id="1"`, `id="-1"`, 1),
		"duplicate id":     strings.Replace(good, `id="2"`, `id="1"`, 1),
		"broken doc":       strings.Replace(good, "</Rec>", "</Wrong>", 1),
		"out-of-range lat": strings.Replace(good, `lat="`, `lat="555`, 1),
		"partial location": strings.Replace(good, ` lon="`, ` data-lon="`, 1),
	}
	for name, corrupt := range cases {
		target := New()
		sentinel, err := insert(target, "Keep", pxml.ElemText("Name", "sentinel"), 0.5, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := target.Restore(strings.NewReader(corrupt)); err == nil {
			t.Errorf("%s: restore succeeded, want error", name)
			continue
		}
		if _, ok := target.Get("Keep", sentinel.ID); !ok {
			t.Errorf("%s: failed restore mutated the database", name)
		}
	}
}

// TestSnapshotEmptyDB: an empty database round-trips.
func TestSnapshotEmptyDB(t *testing.T) {
	var buf bytes.Buffer
	if err := New().Snapshot(&buf); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	restored := New()
	if err := restored.Restore(&buf); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if n := len(restored.Collections()); n != 0 {
		t.Errorf("restored %d collections from empty snapshot", n)
	}
}
