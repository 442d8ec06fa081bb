package shard

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geo"
	"repro/internal/pxml"
	"repro/internal/uncertain"
	"repro/internal/xmldb"
)

func hotelDoc(name string) *pxml.Node {
	return pxml.Elem("Hotel", pxml.ElemText("Hotel_Name", name))
}

func mustInsert(t *testing.T, st *Store, name string, loc *geo.Point, cf uncertain.CF) *xmldb.Record {
	t.Helper()
	return insertRouted(t, st, "Hotels", hotelDoc(name), cf, loc)
}

// insertRouted writes one record on the shard the router assigns its
// location or key, where an integration lane would place it.
func insertRouted(t *testing.T, st *Store, coll string, doc *pxml.Node, cf uncertain.CF, loc *geo.Point) *xmldb.Record {
	t.Helper()
	return insertOn(t, st.Shard(st.Router().Route(loc, DocKey(doc))), coll, doc, cf, loc)
}

// insertOn writes one record to db in a batch of its own.
func insertOn(t *testing.T, db *xmldb.DB, coll string, doc *pxml.Node, cf uncertain.CF, loc *geo.Point) *xmldb.Record {
	t.Helper()
	var rec *xmldb.Record
	err := db.Batch(func(tx *xmldb.Tx) (err error) {
		rec, err = tx.Insert(coll, doc, cf, loc)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// homeOf is the database of a record's home shard.
func homeOf(st *Store, id int64) *xmldb.DB { return st.Shard(st.ShardFor(id)) }

func TestRouterDeterministicAndBounded(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		r := NewGridRouter(n)
		if r.Shards() != n {
			t.Fatalf("Shards() = %d, want %d", r.Shards(), n)
		}
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 200; i++ {
			p := &geo.Point{Lat: rng.Float64()*170 - 85, Lon: rng.Float64()*360 - 180}
			a := r.Route(p, "")
			b := r.Route(p, "ignored for located records")
			if a != b || a < 0 || a >= n {
				t.Fatalf("n=%d: Route(%v) = %d then %d", n, p, a, b)
			}
			key := fmt.Sprintf("Hotel %d", i)
			ka, kb2 := r.Route(nil, key), r.Route(nil, key)
			if ka != kb2 || ka < 0 || ka >= n {
				t.Fatalf("n=%d: Route(nil, %q) = %d then %d", n, key, ka, kb2)
			}
		}
	}
}

func TestRouterKeyNormalisation(t *testing.T) {
	r := NewGridRouter(8)
	if r.Route(nil, "Essex House Hotel") != r.Route(nil, "essex   house hotel") {
		t.Error("normalised key variants routed to different shards")
	}
}

func TestRouterColocatesNearbyPoints(t *testing.T) {
	// Two reports about the same place (metres apart) must share a shard:
	// that is what keeps duplicate detection shard-local.
	r := NewGridRouter(8)
	a := &geo.Point{Lat: 52.5200, Lon: 13.4050}
	b := &geo.Point{Lat: 52.5201, Lon: 13.4052}
	if r.Route(a, "") != r.Route(b, "") {
		t.Error("points metres apart routed to different shards")
	}
}

func TestRouterSpreadsLoad(t *testing.T) {
	const n = 4
	r := NewGridRouter(n)
	rng := rand.New(rand.NewSource(2011))
	counts := make([]int, n)
	for i := 0; i < 4000; i++ {
		p := &geo.Point{Lat: rng.Float64()*170 - 85, Lon: rng.Float64()*360 - 180}
		counts[r.Route(p, "")]++
	}
	for i, c := range counts {
		if c < 400 {
			t.Fatalf("shard %d got %d of 4000 uniformly random points: %v", i, c, counts)
		}
	}
}

func TestStoreIDsGloballyUniqueAndRoutable(t *testing.T) {
	st, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	seen := make(map[int64]bool)
	for i := 0; i < 100; i++ {
		p := &geo.Point{Lat: rng.Float64()*170 - 85, Lon: rng.Float64()*360 - 180}
		rec := mustInsert(t, st, fmt.Sprintf("Hotel %d", i), p, 0.5)
		if seen[rec.ID] {
			t.Fatalf("duplicate record ID %d across shards", rec.ID)
		}
		seen[rec.ID] = true
		// The home shard must be recoverable from the ID alone.
		home := st.ShardFor(rec.ID)
		if got, ok := st.Shard(home).Get("Hotels", rec.ID); !ok || got.ID != rec.ID {
			t.Fatalf("record %d not on its home shard %d", rec.ID, home)
		}
	}
	if got := st.Len("Hotels"); got != 100 {
		t.Fatalf("Len = %d, want 100", got)
	}
}

func TestStoreUpdateDeleteRouteByID(t *testing.T) {
	st, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	p := geo.Point{Lat: 52.52, Lon: 13.405}
	rec := mustInsert(t, st, "Axel Hotel", &p, 0.5)
	home := homeOf(st, rec.ID)
	if err := home.Batch(func(tx *xmldb.Tx) error {
		return tx.Update("Hotels", rec.ID, hotelDoc("Axel Hotel Berlin"), 0.7, nil)
	}); err != nil {
		t.Fatal(err)
	}
	got, ok := home.Get("Hotels", rec.ID)
	if !ok || got.Certainty != 0.7 {
		t.Fatalf("after update: %+v, %v", got, ok)
	}
	if err := home.Batch(func(tx *xmldb.Tx) error { return tx.Delete("Hotels", rec.ID) }); err != nil {
		t.Fatal(err)
	}
	if _, ok := home.Get("Hotels", rec.ID); ok {
		t.Fatal("record survived delete")
	}
	if got := st.Len("Hotels"); got != 0 {
		t.Fatalf("Len after delete = %d", got)
	}
}

func TestStoreEachVisitsAllAndStops(t *testing.T) {
	st, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	want := make(map[string]bool)
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("Hotel %d", i)
		p := &geo.Point{Lat: rng.Float64()*170 - 85, Lon: rng.Float64()*360 - 180}
		mustInsert(t, st, name, p, 0.5)
		want[name] = true
	}
	// The shards together hold every record exactly once.
	got := make(map[string]bool)
	fullest := 0
	for i := 0; i < st.NumShards(); i++ {
		st.Shard(i).Each("Hotels", func(rec *xmldb.Record) bool {
			n, _ := rec.Doc.FirstChild("Hotel_Name")
			if got[n.TextContent()] {
				t.Fatalf("%q stored twice", n.TextContent())
			}
			got[n.TextContent()] = true
			return true
		})
		if st.Shard(i).Len("Hotels") > st.Shard(fullest).Len("Hotels") {
			fullest = i
		}
	}
	if len(got) != len(want) {
		t.Fatalf("shards hold %d of %d records", len(got), len(want))
	}
	// Early stop is honoured.
	visits := 0
	st.Shard(fullest).Each("Hotels", func(*xmldb.Record) bool {
		visits++
		return visits < 3
	})
	if visits != 3 {
		t.Fatalf("early stop visited %d records, want 3", visits)
	}
}

// recordNames maps a store's record IDs to hotel names, the cross-store
// identity (IDs differ between sharded and unsharded stores by design).
func nameOf(t *testing.T, g interface {
	Get(string, int64) (*xmldb.Record, bool)
}, id int64) string {
	t.Helper()
	rec, ok := g.Get("Hotels", id)
	if !ok {
		t.Fatalf("record %d vanished", id)
	}
	n, _ := rec.Doc.FirstChild("Hotel_Name")
	return n.TextContent()
}

// TestNearMatchesSingleStore is the shard-boundary property test: random
// points inserted into a 4-shard store and an unsharded database, then
// radius queries — including radii far wider than a routing grid cell,
// so the circle straddles many shard boundaries — must return the same
// set of records, nearest first.
func TestNearMatchesSingleStore(t *testing.T) {
	const points = 300
	st, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	single := xmldb.New()
	rng := rand.New(rand.NewSource(2011))
	// Cluster the points over Europe so radii actually catch neighbours.
	for i := 0; i < points; i++ {
		p := geo.Point{
			Lat: 42 + rng.Float64()*18, // 42..60
			Lon: -5 + rng.Float64()*30, // -5..25
		}
		name := fmt.Sprintf("Hotel %d", i)
		mustInsert(t, st, name, &p, 0.5)
		insertOn(t, single, "Hotels", hotelDoc(name), 0.5, &p)
	}
	for trial := 0; trial < 50; trial++ {
		center := geo.Point{Lat: 42 + rng.Float64()*18, Lon: -5 + rng.Float64()*30}
		// From sub-cell (50 km) to continent-straddling (1500 km) radii;
		// grid cells at the default precision are ~156 km.
		radius := 50_000 + rng.Float64()*1_450_000
		gotIDs := st.NearContext(context.Background(), "Hotels", center, radius)
		wantIDs := single.Near("Hotels", center, radius)

		got := make([]string, len(gotIDs))
		for i, id := range gotIDs {
			got[i] = nameOf(t, homeOf(st, id), id)
		}
		want := make([]string, len(wantIDs))
		for i, id := range wantIDs {
			want[i] = nameOf(t, single, id)
		}
		sortedGot := append([]string(nil), got...)
		sortedWant := append([]string(nil), want...)
		sort.Strings(sortedGot)
		sort.Strings(sortedWant)
		if len(sortedGot) != len(sortedWant) {
			t.Fatalf("trial %d: sharded Near found %d records, single store %d", trial, len(got), len(want))
		}
		for i := range sortedGot {
			if sortedGot[i] != sortedWant[i] {
				t.Fatalf("trial %d: result sets differ at %q vs %q", trial, sortedGot[i], sortedWant[i])
			}
		}
		// And the sharded merge must be nearest-first, like the single
		// store's spatial index.
		lastD := -1.0
		for _, id := range gotIDs {
			rec, _ := homeOf(st, id).Get("Hotels", id)
			d := rec.Location.DistanceMeters(center)
			if d < lastD {
				t.Fatalf("trial %d: merged Near not sorted by distance (%f after %f)", trial, d, lastD)
			}
			if d > radius {
				t.Fatalf("trial %d: record %d at %.0f m outside radius %.0f m", trial, id, d, radius)
			}
			lastD = d
		}
	}
}

func TestQueryFanOutTopKOrdering(t *testing.T) {
	st, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct certainties so the global top-3 is unambiguous; spread
	// over far-apart locations so records land on several shards.
	locs := []geo.Point{
		{Lat: 52.52, Lon: 13.405}, {Lat: -1.29, Lon: 36.82},
		{Lat: 40.71, Lon: -74.0}, {Lat: 35.68, Lon: 139.69},
		{Lat: -33.87, Lon: 151.21}, {Lat: 55.75, Lon: 37.62},
	}
	for i := range locs {
		cf := uncertain.CF(0.3 + 0.1*float64(i))
		mustInsert(t, st, fmt.Sprintf("Hotel %d", i), &locs[i], cf)
	}
	if st.Balance()[0] == len(locs) {
		t.Fatal("test fixture degenerate: every record landed on shard 0")
	}
	res, err := st.RunContext(context.Background(), "topk(3, for $x in //Hotels orderby score($x) return $x)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("topk(3) returned %d results", len(res))
	}
	for i, want := range []string{"Hotel 5", "Hotel 4", "Hotel 3"} {
		n, _ := res[i].Record.Doc.FirstChild("Hotel_Name")
		if n.TextContent() != want {
			t.Fatalf("rank %d = %q, want %q", i, n.TextContent(), want)
		}
	}
}

func TestStoreCollectionsUnion(t *testing.T) {
	st, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	// Force records onto both shards directly to get disjoint collection
	// sets per shard.
	insertOn(t, st.Shard(0), "Hotels", hotelDoc("A"), 0.5, nil)
	insertOn(t, st.Shard(1), "Roads", pxml.Elem("RoadReport", pxml.ElemText("Place", "A2")), 0.5, nil)
	got := st.Collections()
	if len(got) != 2 || got[0] != "Hotels" || got[1] != "Roads" {
		t.Fatalf("Collections = %v", got)
	}
}

func TestNewRejectsBadShapes(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("New(0) accepted")
	}
	if _, err := New(-1); err == nil {
		t.Error("New(-1) accepted")
	}
}
