package xmldb

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/pxml"
	"repro/internal/tweetgen"
	"repro/internal/uncertain"
)

var (
	recFields = []string{"City", "Place", "Region"}
	recValues = []string{"A", "B", "C", "AB"}
)

// indexLeaves returns 1–3 text leaves under a fresh distribution node of
// the given kind, with probabilities a mux can hold.
func indexLeaves(rng *rand.Rand, kind pxml.Kind) *pxml.Node {
	d := pxml.Mux()
	if kind == pxml.KindInd {
		d = pxml.Ind()
	}
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		v := recValues[rng.Intn(len(recValues))]
		if rng.Intn(8) == 0 {
			v = ""
		}
		d.Add(pxml.Text(v).WithProb(rng.Float64() / float64(n)))
	}
	return d
}

// indexElem returns one element named field in a shape the index must
// cover: certain text, text split over two leaves, certain text beside a
// mux (the text wins), a mux or an ind of leaves, or nested elements
// (no value at all).
func indexElem(rng *rand.Rand, field string) *pxml.Node {
	switch rng.Intn(6) {
	case 0:
		return pxml.ElemText(field, recValues[rng.Intn(len(recValues))])
	case 1:
		return pxml.Elem(field, pxml.Text("A"), pxml.Text("B"))
	case 2:
		return pxml.Elem(field, pxml.Text(recValues[rng.Intn(len(recValues))]), indexLeaves(rng, pxml.KindMux))
	case 3:
		return pxml.Elem(field, indexLeaves(rng, pxml.KindMux))
	case 4:
		return pxml.Elem(field, indexLeaves(rng, pxml.KindInd))
	default:
		return pxml.Elem(field, pxml.ElemText("Inner", "A"))
	}
}

// indexDoc generates a record whose fields may be certain, repeated, or
// wrapped in a root-level mux or ind.
func indexDoc(rng *rand.Rand) *pxml.Node {
	doc := pxml.Elem("Rec")
	for _, field := range recFields {
		switch rng.Intn(6) {
		case 0: // absent
		case 1:
			doc.Add(indexElem(rng, field), indexElem(rng, field))
		case 2:
			a, b := indexElem(rng, field), indexElem(rng, field)
			a.Prob, b.Prob = rng.Float64()/2, rng.Float64()/2
			doc.Add(pxml.Mux(a, b))
		case 3:
			a := indexElem(rng, field)
			a.Prob = rng.Float64()
			doc.Add(pxml.Ind(a))
		default:
			doc.Add(indexElem(rng, field))
		}
	}
	return doc
}

// indexQuery draws 1–3 equality conjuncts on distinct fields (one may
// name a field no record has), sometimes a near(), with and without
// top-k and ranking.
func indexQuery(rng *rand.Rand) *Query {
	q := &Query{Collection: "Recs", TopK: rng.Intn(4), OrderByScore: rng.Intn(3) != 0}
	fields := append([]string{"Missing"}, recFields...)
	for _, f := range rng.Perm(len(fields))[:1+rng.Intn(3)] {
		q.Where = append(q.Where, Equal{Path: fields[f], Value: recValues[rng.Intn(len(recValues))]})
	}
	if rng.Intn(5) == 0 {
		q.Near = &Near{Center: oracleCenter, RadiusMeters: rng.Float64() * 80_000}
	}
	return q
}

// scanExecute is the evaluator the value index replaced: every record
// (every spatial hit, nearest first, under a near()) scored by
// pxml.ValueProb on the joined path, then a stable sort and a top-k cut.
func scanExecute(db *DB, q *Query) []Result {
	var out []Result
	eval := func(rec *Record) bool {
		condP := 1.0
		for _, e := range q.Where {
			condP *= pxml.ValueProb(rec.Doc, rec.Doc.Tag+"/"+e.Path, e.Value)
		}
		if condP > 0 {
			out = append(out, Result{Record: rec, CondP: condP, Score: condP * uncertain.ToProbability(rec.Certainty)})
		}
		return true
	}
	if n := q.Near; n != nil {
		for _, id := range db.Near(q.Collection, n.Center, n.RadiusMeters) {
			if rec, ok := db.Get(q.Collection, id); ok && rec.Location != nil && rec.Location.DistanceMeters(n.Center) <= n.RadiusMeters {
				eval(rec)
			}
		}
	} else {
		db.Each(q.Collection, eval)
	}
	if q.OrderByScore {
		sort.SliceStable(out, func(i, j int) bool {
			if out[i].Score != out[j].Score {
				return out[i].Score > out[j].Score
			}
			return out[i].Record.ID < out[j].Record.ID
		})
	}
	if q.TopK > 0 && len(out) > q.TopK {
		out = out[:q.TopK]
	}
	return out
}

// checkIndex fails unless every built field index equals one rebuilt
// from the records: a stale or missing posting shows here even when no
// query happens to hit it.
func checkIndex(t *testing.T, db *DB, step string) {
	t.Helper()
	db.mu.RLock()
	defer db.mu.RUnlock()
	for name, c := range db.collections {
		for field, got := range c.values {
			if want := c.indexField(field); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s/%s index %v, rebuilt %v", step, name, field, got, want)
			}
		}
	}
}

// TestValueIndexMatchesScan: over seeded histories of inserts, updates,
// deletes and restores interleaved with queries, Execute returns exactly
// what a ValueProb scan returns, and every built field index matches the
// records after every step.
func TestValueIndexMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := New()
		db.SetClock(snapClock())
		var ids []int64
		for step := 0; step < 150; step++ {
			var loc *geo.Point
			if rng.Intn(2) == 0 {
				p := oracleCenter.Destination(rng.Float64()*360, rng.Float64()*80_000)
				loc = &p
			}
			cf := uncertain.CF(float64(rng.Intn(5))/2 - 1) // few values, so scores tie
			var op string
			switch r := rng.Intn(20); {
			case r < 6 || len(ids) == 0:
				op = "insert"
				rec, err := insert(db, "Recs", indexDoc(rng), cf, loc)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, rec.ID)
			case r < 9:
				op = "update"
				id := ids[rng.Intn(len(ids))]
				doc := indexDoc(rng)
				if rng.Intn(3) == 0 {
					old, _ := db.Get("Recs", id)
					doc = old.Doc.Clone()
				}
				if err := update(db, "Recs", id, doc, cf, loc); err != nil {
					t.Fatal(err)
				}
			case r < 11:
				op = "delete"
				i := rng.Intn(len(ids))
				if err := remove(db, "Recs", ids[i]); err != nil {
					t.Fatal(err)
				}
				ids = append(ids[:i], ids[i+1:]...)
			case r < 12:
				op = "restore"
				var buf bytes.Buffer
				if err := db.Snapshot(&buf); err != nil {
					t.Fatal(err)
				}
				if err := db.Restore(&buf); err != nil {
					t.Fatal(err)
				}
			default:
				op = "query"
				q := indexQuery(rng)
				got, err := db.Execute(q)
				if err != nil {
					t.Fatal(err)
				}
				if want := scanExecute(db, q); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d %s:\n got %v\nwant %v", seed, step, q, got, want)
				}
			}
			checkIndex(t, db, op)
		}
	}
}

// TestValueIndexConcurrentQueries: queries that index fields for the
// first time race writes and restores; run with -race. Afterwards every
// index matches the records and every query the scan.
func TestValueIndexConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := New()
	var ids []int64
	for i := 0; i < 50; i++ {
		rec, err := insert(db, "Recs", indexDoc(rng), 0.5, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
	}
	queries := make([]*Query, 8)
	for i := range queries {
		queries[i] = indexQuery(rng)
		queries[i].Near = nil
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.Execute(q); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		var err error
		switch id := ids[rng.Intn(len(ids))]; {
		case i%50 == 49:
			var buf bytes.Buffer
			if err = db.Snapshot(&buf); err == nil {
				err = db.Restore(&buf)
			}
		case i%3 == 0:
			var rec *Record
			if rec, err = insert(db, "Recs", indexDoc(rng), 0.5, nil); err == nil {
				ids = append(ids, rec.ID)
			}
		default:
			err = update(db, "Recs", id, indexDoc(rng), 0.5, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	checkIndex(t, db, "concurrent")
	for _, q := range queries {
		got, err := db.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if want := scanExecute(db, q); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\n got %v\nwant %v", q, got, want)
		}
	}
}

// TestValueIndexBypassesUnorderedRestore: a restored collection whose
// records do not ascend by ID is scanned, so unranked answers keep its
// insertion order.
func TestValueIndexBypassesUnorderedRestore(t *testing.T) {
	rec := func(id, city string) string {
		return `<record id="` + id + `" certainty="0.5" updated="2011-03-21T00:00:00Z"><Rec><City>` + city + `</City></Rec></record>`
	}
	snap := `<xmldb next-id="4"><collection name="Recs">` + rec("3", "A") + rec("1", "A") + rec("2", "B") + `</collection></xmldb>`
	db := New()
	if err := db.Restore(strings.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	q, err := Parse(`for $x in //Recs where $x/City == "A" return $x`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if want := scanExecute(db, q); !reflect.DeepEqual(got, want) || len(got) != 2 || got[0].Record.ID != 3 {
		t.Fatalf("got %v, want %v (IDs 3, 1)", got, want)
	}
}

// BenchmarkExecute runs one- and two-conjunct ranked queries, the shapes
// the QA service formulates, over 800 Hotel records spread across the
// generator's cities.
func BenchmarkExecute(b *testing.B) {
	rng := rand.New(rand.NewSource(2011))
	db := New()
	for i := 0; i < 800; i++ {
		doc := hotelRecord(fmt.Sprintf("Hotel %d", i), tweetgen.Cities[rng.Intn(len(tweetgen.Cities))], rng.Float64(), rng.Float64())
		if _, err := insert(db, "Hotels", doc, uncertain.CF(rng.Float64()*2-1), nil); err != nil {
			b.Fatal(err)
		}
	}
	for _, query := range []string{
		`topk(3, for $x in //Hotels where $x/City == "Berlin" orderby score($x) return $x)`,
		`topk(3, for $x in //Hotels where $x/City == "Berlin" and $x/User_Attitude == "Positive" orderby score($x) return $x)`,
	} {
		q, err := Parse(query)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("conjuncts=%d", len(q.Where)), func(b *testing.B) {
			for b.Loop() {
				if _, err := db.Execute(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
