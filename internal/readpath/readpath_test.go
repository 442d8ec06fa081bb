package readpath

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/pxml"
	"repro/internal/qa"
	"repro/internal/shard"
	"repro/internal/xmldb"
)

func TestNormalizeQuestion(t *testing.T) {
	cases := map[string]string{
		"  any  good\thotel\n in Berlin? ": "any good hotel in Berlin?",
		"Any good hotel in Berlin?":        "Any good hotel in Berlin?", // case preserved
		"":                                 "",
	}
	for in, want := range cases {
		if got := NormalizeQuestion(in); got != want {
			t.Errorf("NormalizeQuestion(%q) = %q, want %q", in, got, want)
		}
	}
}

func ans(text string) *qa.Answer { return &qa.Answer{Text: text} }

func TestCacheWholeStoreInvalidation(t *testing.T) {
	c := NewCache(8)
	v1 := []int64{3, 7}
	c.Put("q", ans("a"), nil, v1, 0)

	if got, ok := c.Get("  q ", v1, 0); !ok || got.Text != "a" {
		t.Fatalf("Get = %v, %v; want hit via normalized key", got, ok)
	}
	// Any shard's version moving invalidates a whole-store entry.
	if _, ok := c.Get("q", []int64{3, 8}, 0); ok {
		t.Fatal("stale entry served after a shard moved")
	}
	if _, ok := c.Get("q", v1, 0); ok {
		t.Fatal("invalidated entry resurrected")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Invalidations != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheNarrowedPlanIgnoresUntouchedShards(t *testing.T) {
	c := NewCache(8)
	v1 := []int64{1, 1, 1, 1}
	c.Put("q", ans("a"), []int{2}, v1, 0)

	// A write on an untouched shard keeps the entry fresh.
	if _, ok := c.Get("q", []int64{9, 1, 1, 9}, 0); !ok {
		t.Fatal("write to untouched shard invalidated a narrowed entry")
	}
	// A write on the touched shard invalidates.
	if _, ok := c.Get("q", []int64{9, 1, 2, 9}, 0); ok {
		t.Fatal("write to touched shard did not invalidate")
	}
}

func TestCacheDriftPinsNarrowedPlans(t *testing.T) {
	c := NewCache(8)
	v := []int64{1, 1}
	c.Put("narrow", ans("n"), []int{0}, v, 0)
	c.Put("whole", ans("w"), nil, v, 0)

	// Placement drift voids narrowed plans even with versions unmoved...
	if _, ok := c.Get("narrow", v, 1); ok {
		t.Fatal("narrowed entry survived a drift-epoch change")
	}
	// ...but a whole-store entry's coherence never depended on placement.
	if _, ok := c.Get("whole", v, 1); !ok {
		t.Fatal("whole-store entry invalidated by drift")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	v := []int64{1}
	c.Put("a", ans("a"), nil, v, 0)
	c.Put("b", ans("b"), nil, v, 0)
	if _, ok := c.Get("a", v, 0); !ok { // a is now most recent
		t.Fatal("miss on a")
	}
	c.Put("c", ans("c"), nil, v, 0) // evicts b
	if _, ok := c.Get("b", v, 0); ok {
		t.Fatal("LRU kept the least recently used entry")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k, v, 0); !ok {
			t.Fatalf("%q evicted out of order", k)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 || st.Capacity != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// hotelRecord builds the record shape integration stores: the key field
// first, a located root.
func hotelRecord(id int64, name string, loc *geo.Point) *xmldb.Record {
	return &xmldb.Record{
		ID:        id,
		Doc:       pxml.Elem("Hotel", pxml.ElemText("Hotel_Name", name), pxml.ElemText("City", "Berlin")),
		Certainty: 0.6,
		Location:  loc,
	}
}

func newTestStore(t *testing.T, shards int) *shard.Store {
	t.Helper()
	st, err := shard.New(shards)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestBrokerKeySubscription(t *testing.T) {
	st := newTestStore(t, 1)
	b := NewBroker(st)
	id, err := b.Subscribe(Subscription{Collection: "Hotels", Key: "Axel Hotel"})
	if err != nil {
		t.Fatal(err)
	}
	events, release, err := b.Attach(id)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	at := time.Unix(1_300_000_000, 0)
	b.Publish(0, "inserted", "Hotels", hotelRecord(1, "axel hotel", nil), at) // key match is normalized
	b.Publish(0, "inserted", "Hotels", hotelRecord(2, "Movenpick Hotel", nil), at)
	b.Publish(0, "inserted", "Traffic", hotelRecord(3, "Axel Hotel", nil), at) // wrong collection

	select {
	case ev := <-events:
		if ev.RecordID != 1 || ev.Action != "inserted" || ev.Fields["Hotel_Name"] != "axel hotel" {
			t.Fatalf("wrong event: %+v", ev)
		}
	default:
		t.Fatal("matching publish not delivered")
	}
	select {
	case ev := <-events:
		t.Fatalf("non-matching publish delivered: %+v", ev)
	default:
	}
}

func TestBrokerGeofence(t *testing.T) {
	st := newTestStore(t, 1)
	b := NewBroker(st)
	center := geo.Point{Lat: 52.5, Lon: 13.4}
	id, err := b.Subscribe(Subscription{Center: &center, RadiusMeters: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	events, release, err := b.Attach(id)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	at := time.Unix(1_300_000_000, 0)
	inside := &geo.Point{Lat: 52.52, Lon: 13.41}
	outside := &geo.Point{Lat: 48.8, Lon: 2.3}
	b.Publish(0, "inserted", "Hotels", hotelRecord(1, "Near Hotel", inside), at)
	b.Publish(0, "inserted", "Hotels", hotelRecord(2, "Far Hotel", outside), at)
	b.Publish(0, "inserted", "Hotels", hotelRecord(3, "Unlocated Hotel", nil), at)

	select {
	case ev := <-events:
		if ev.RecordID != 1 || ev.Location == nil {
			t.Fatalf("wrong event: %+v", ev)
		}
	default:
		t.Fatal("inside-fence publish not delivered")
	}
	select {
	case ev := <-events:
		t.Fatalf("outside-fence publish delivered: %+v", ev)
	default:
	}
}

func TestBrokerValidation(t *testing.T) {
	b := NewBroker(newTestStore(t, 1))
	center := geo.Point{Lat: 52.5, Lon: 13.4}
	bad := []Subscription{
		{}, // neither axis
		{Key: "x", Center: &center, RadiusMeters: 5}, // both axes
		{Center: &center}, // no radius
		{Center: &center, RadiusMeters: -1},
		{Center: &geo.Point{Lat: 99, Lon: 0}, RadiusMeters: 5},
	}
	for i, spec := range bad {
		if _, err := b.Subscribe(spec); !errors.Is(err, ErrInvalidSubscription) {
			t.Errorf("spec %d: err = %v, want ErrInvalidSubscription", i, err)
		}
	}
}

func TestBrokerSingleConsumer(t *testing.T) {
	b := NewBroker(newTestStore(t, 1))
	id, err := b.Subscribe(Subscription{Key: "Axel Hotel"})
	if err != nil {
		t.Fatal(err)
	}
	_, release, err := b.Attach(id)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Attach(id); !errors.Is(err, ErrStreamBusy) {
		t.Fatalf("second attach err = %v, want ErrStreamBusy", err)
	}
	release()
	if _, release2, err := b.Attach(id); err != nil {
		t.Fatalf("attach after release: %v", err)
	} else {
		release2()
	}
	if _, _, err := b.Attach("nope"); !errors.Is(err, ErrUnknownSubscription) {
		t.Fatalf("unknown attach err = %v", err)
	}
	if err := b.Unsubscribe("nope"); !errors.Is(err, ErrUnknownSubscription) {
		t.Fatalf("unknown unsubscribe err = %v", err)
	}
}

func TestBrokerDropOldest(t *testing.T) {
	b := NewBroker(newTestStore(t, 1))
	id, err := b.Subscribe(Subscription{Key: "Axel Hotel"})
	if err != nil {
		t.Fatal(err)
	}
	at := time.Unix(1_300_000_000, 0)
	total := subBuffer + 10
	for i := 0; i < total; i++ {
		b.Publish(0, "merged", "Hotels", hotelRecord(int64(i+1), "Axel Hotel", nil), at)
	}
	info, err := b.Info(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Dropped != int64(total-subBuffer) {
		t.Fatalf("dropped = %d, want %d", info.Dropped, total-subBuffer)
	}
	events, release, err := b.Attach(id)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	// Drop-oldest means the buffer holds the most recent events.
	first := <-events
	if first.RecordID != int64(total-subBuffer+1) {
		t.Fatalf("oldest surviving event is record %d, want %d", first.RecordID, total-subBuffer+1)
	}
	// Every publish was buffered (delivered) — overflow displaced the
	// OLDEST buffered event rather than refusing the new one.
	st := b.Stats()
	if st.Delivered != int64(total) || st.Dropped != int64(total-subBuffer) {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBrokerShardRegistration(t *testing.T) {
	st := newTestStore(t, 4)
	b := NewBroker(st)

	// Spatial router + key subscription: the entity's records can be on
	// any shard, so the subscription listens everywhere.
	keyID, err := b.Subscribe(Subscription{Key: "Axel Hotel"})
	if err != nil {
		t.Fatal(err)
	}
	keyInfo, _ := b.Info(keyID)
	if len(keyInfo.Shards) != 4 {
		t.Fatalf("key subscription under GridRouter on %v, want all 4 shards", keyInfo.Shards)
	}

	// A small geofence narrows to the covering shards.
	fenceID, err := b.Subscribe(Subscription{Center: &geo.Point{Lat: 52.5, Lon: 13.4}, RadiusMeters: 5000})
	if err != nil {
		t.Fatal(err)
	}
	fenceInfo, _ := b.Info(fenceID)
	if len(fenceInfo.Shards) == 0 || len(fenceInfo.Shards) > 4 {
		t.Fatalf("fence shards = %v", fenceInfo.Shards)
	}
	for _, s := range fenceInfo.Shards {
		if !b.ActiveOn(s) {
			t.Fatalf("ActiveOn(%d) = false for a registered shard", s)
		}
	}
}

func TestBrokerClose(t *testing.T) {
	b := NewBroker(newTestStore(t, 1))
	id, err := b.Subscribe(Subscription{Key: "Axel Hotel"})
	if err != nil {
		t.Fatal(err)
	}
	events, release, err := b.Attach(id)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	b.Close()
	if _, ok := <-events; ok {
		t.Fatal("stream still open after broker close")
	}
	if _, err := b.Subscribe(Subscription{Key: "x"}); !errors.Is(err, ErrBrokerClosed) {
		t.Fatalf("subscribe after close err = %v", err)
	}
	b.Close() // idempotent
}

func TestTouchedShards(t *testing.T) {
	single := newTestStore(t, 1)
	four := newTestStore(t, 4)

	nearQ := "for $x in //Hotels where near($x, 52.5, 13.4, 50000) return $x"
	conjQ := `topk(3, for $x in //Hotels where near($x, 52.5, 13.4, 50000) and $x/User_Attitude == "Positive" orderby score($x) return $x)`
	orQ := `for $x in //Hotels where near($x, 52.5, 13.4, 50000) or $x/City == "Berlin" return $x`
	cityQ := `for $x in //Hotels where $x/City == "Berlin" return $x`

	if got := TouchedShards(nearQ, single); got != nil {
		t.Fatalf("single-shard plan = %v, want nil", got)
	}
	narrowed := TouchedShards(nearQ, four)
	if len(narrowed) == 0 || len(narrowed) >= 4 {
		t.Fatalf("near plan = %v, want a strict subset of 4 shards", narrowed)
	}
	conj := TouchedShards(conjQ, four)
	if fmt.Sprint(conj) != fmt.Sprint(narrowed) {
		t.Fatalf("conjunctive near plan %v differs from bare near plan %v", conj, narrowed)
	}
	// The language has no `or` any more, so Parse rejects orQ; an
	// unparseable query must stay whole-store rather than narrow.
	if got := TouchedShards(orQ, four); got != nil {
		t.Fatalf("disjunctive near narrowed to %v; a disjunction can match outside the circle", got)
	}
	if got := TouchedShards(cityQ, four); got != nil {
		t.Fatalf("city plan = %v, want nil (field values are invisible to the router)", got)
	}
	if got := TouchedShards("not a query", four); got != nil {
		t.Fatalf("unparseable query plan = %v, want nil", got)
	}

	// Planet-sized circles cover everything and stay whole-store.
	if got := TouchedShards("for $x in //Hotels where near($x, 0, 0, 20015000) return $x", four); got != nil {
		t.Fatalf("planet-sized near = %v, want nil", got)
	}
}

func TestCoverShardsContainsCircleRecords(t *testing.T) {
	st := newTestStore(t, 8)
	gr := st.Router()
	center := geo.Point{Lat: 52.5, Lon: 13.4}
	const radius = 100_000
	cover := gr.CoverShards(center, radius)
	inCover := make(map[int]bool, len(cover))
	for _, s := range cover {
		inCover[s] = true
	}
	// Every point inside the circle must route into the cover: sample a
	// dense grid over the bounding box.
	for dlat := -1.0; dlat <= 1.0; dlat += 0.05 {
		for dlon := -1.6; dlon <= 1.6; dlon += 0.05 {
			p := geo.Point{Lat: center.Lat + dlat, Lon: center.Lon + dlon}
			if p.DistanceMeters(center) > radius {
				continue
			}
			if home := gr.Route(&p, ""); !inCover[home] {
				t.Fatalf("point %v inside the circle routes to shard %d outside cover %v", p, home, cover)
			}
		}
	}
}
