package qa

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/extract"
	"repro/internal/gazetteer"
	"repro/internal/geo"
	"repro/internal/integrate"
	"repro/internal/kb"
	"repro/internal/ontology"
	"repro/internal/shard"
	"repro/internal/xmldb"
)

type world struct {
	gaz *gazetteer.Gazetteer
	ont *ontology.Ontology
	kb  *kb.KB
	db  *xmldb.DB
	ie  *extract.Service
	di  *integrate.Service
	qa  *Service
}

var t0 = time.Date(2011, 4, 1, 9, 0, 0, 0, time.UTC)

// newWorld builds the standard small world plus any extra gazetteer
// entries.
func newWorld(t *testing.T, extra ...gazetteer.Entry) *world {
	t.Helper()
	store, err := shard.New(1)
	if err != nil {
		t.Fatal(err)
	}
	var entries []gazetteer.Entry
	add := func(name string, lat, lon float64, country string, pop int64) {
		entries = append(entries, gazetteer.Entry{
			Name: name, Location: geo.Point{Lat: lat, Lon: lon},
			Feature: gazetteer.FeatureCity, Country: country, Population: pop,
		})
	}
	add("Berlin", 52.52, 13.405, "DE", 3_700_000)
	add("Berlin", 44.47, -71.18, "US", 10_000)
	add("Paris", 48.85, 2.35, "FR", 2_100_000)
	add("Nairobi", -1.29, 36.82, "KE", 4_400_000)
	w := &world{kb: kb.New(), db: store.Shard(0)}
	if w.gaz, err = gazetteer.New(append(entries, extra...)); err != nil {
		t.Fatal(err)
	}
	w.ont = ontology.New()
	w.ont.LoadContainment(w.gaz)
	if w.ie, err = extract.NewService(w.kb, w.gaz, w.ont); err != nil {
		t.Fatal(err)
	}
	if w.di, err = integrate.NewService(w.kb, w.db); err != nil {
		t.Fatal(err)
	}
	if w.qa, err = NewService(store, w.kb, w.gaz, w.ont); err != nil {
		t.Fatal(err)
	}
	return w
}

// ingest runs a message through IE and DI.
func (w *world) ingest(t *testing.T, msg, source string) {
	t.Helper()
	ex, err := w.ie.Extract(context.Background(), msg, source, t0)
	if err != nil {
		t.Fatalf("extract %q: %v", msg, err)
	}
	for _, tpl := range ex.Templates {
		if _, err := w.di.Integrate(tpl); err != nil {
			t.Fatalf("integrate %q: %v", msg, err)
		}
	}
}

func TestPaperScenarioEndToEndQA(t *testing.T) {
	w := newWorld(t)
	// The paper's three informative messages.
	w.ingest(t, "berlin has some nice hotels i just loved the hetero friendly love that word Axel Hotel in Berlin.", "u1")
	w.ingest(t, "Good morning Berlin. The sun is out!!!! Very impressed by the customer service at #movenpick hotel in berlin. Well done guys!", "u2")
	w.ingest(t, "In Berlin hotel room, nice enough, weather grim however", "u3")

	// The paper's request.
	ex, err := w.ie.Extract(context.Background(), "Can anyone recommend a good, but not ridiculously expensive hotel right in the middle of Berlin?", "asker", t0)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Type != extract.TypeRequest {
		t.Fatalf("request misclassified: %s", ex.Type)
	}
	ans, err := w.qa.Answer(context.Background(), ex)
	if err != nil {
		t.Fatal(err)
	}
	// The formulated query mirrors the paper's.
	if !strings.Contains(ans.Query, "topk(3") ||
		!strings.Contains(ans.Query, `$x/City == "Berlin"`) ||
		!strings.Contains(ans.Query, `$x/User_Attitude == "Positive"`) ||
		!strings.Contains(ans.Query, "orderby score($x)") {
		t.Errorf("query = %q", ans.Query)
	}
	// The answer names the three hotels, like the paper's
	// "Some good hotels in Berlin are Axel Hotel, movenpick hotel, Berlin hotel."
	low := strings.ToLower(ans.Text)
	for _, hotel := range []string{"axel hotel", "movenpick hotel", "berlin hotel"} {
		if !strings.Contains(low, hotel) {
			t.Errorf("answer missing %q: %s", hotel, ans.Text)
		}
	}
	if !strings.Contains(low, "in berlin") {
		t.Errorf("answer missing location: %s", ans.Text)
	}
	if len(ans.Results) != 3 {
		t.Errorf("results = %d", len(ans.Results))
	}
}

func TestQANoData(t *testing.T) {
	w := newWorld(t)
	ex, err := w.ie.Extract(context.Background(), "any good hotels in Paris?", "asker", t0)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := w.qa.Answer(context.Background(), ex)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ans.Text, "Sorry") {
		t.Errorf("empty-db answer = %q", ans.Text)
	}
}

func TestQACityFilter(t *testing.T) {
	w := newWorld(t)
	w.ingest(t, "loved the Axel Hotel in Berlin, great stay", "u1")
	w.ingest(t, "wonderful stay at hotel Lumiere in Paris", "u2")

	ex, err := w.ie.Extract(context.Background(), "recommend a good hotel in Paris please", "asker", t0)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := w.qa.Answer(context.Background(), ex)
	if err != nil {
		t.Fatal(err)
	}
	low := strings.ToLower(ans.Text)
	if strings.Contains(low, "axel") {
		t.Errorf("Berlin hotel leaked into Paris answer: %s", ans.Text)
	}
	if !strings.Contains(low, "lumiere") {
		t.Errorf("Paris hotel missing: %s", ans.Text)
	}
}

func TestQATraffic(t *testing.T) {
	w := newWorld(t)
	w.ingest(t, "huge traffic jam in Nairobi after the accident, road blocked", "driver")
	ex, err := w.ie.Extract(context.Background(), "any traffic in Nairobi this morning?", "asker", t0)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Type != extract.TypeRequest {
		t.Fatalf("traffic request misclassified: %v", ex.Type)
	}
	ans, err := w.qa.Answer(context.Background(), ex)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.ToLower(ans.Text), "nairobi") {
		t.Errorf("traffic answer = %q", ans.Text)
	}
	if !strings.Contains(ans.Text, "certainty") {
		t.Errorf("traffic answer lacks certainty: %q", ans.Text)
	}
}

func TestQAUnintelligible(t *testing.T) {
	w := newWorld(t)
	ex, err := w.ie.Extract(context.Background(), "what is the meaning of it all?", "philosopher", t0)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := w.qa.Answer(context.Background(), ex)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ans.Text, "could not understand") {
		t.Errorf("answer = %q", ans.Text)
	}
	if _, err := w.qa.Answer(context.Background(), nil); err == nil {
		t.Error("nil extraction accepted")
	}
}

func TestNewServiceValidation(t *testing.T) {
	if _, err := NewService(nil, nil, nil, nil); err == nil {
		t.Error("nil deps accepted")
	}
}

func TestJoinNatural(t *testing.T) {
	cases := []struct {
		in   []string
		want string
	}{
		{nil, "none"},
		{[]string{"A"}, "A"},
		{[]string{"A", "B"}, "A and B"},
		{[]string{"A", "B", "C"}, "A, B and C"},
	}
	for _, c := range cases {
		if got := joinNatural(c.in); got != c.want {
			t.Errorf("joinNatural(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestNearPlaceSpatialQuery covers the paper's other example request —
// "What are the good/cheap hotels near Paris?" — which must formulate a
// spatial near() predicate rather than a City equality: a suburb hotel
// outside the city proper must still be found, a Berlin one must not.
func TestNearPlaceSpatialQuery(t *testing.T) {
	// Versailles sits ~17 km from central Paris with a different City.
	w := newWorld(t, gazetteer.Entry{
		Name: "Versailles", Location: geo.Point{Lat: 48.8049, Lon: 2.1204},
		Feature: gazetteer.FeatureCity, Country: "FR", Population: 85_000,
	})

	w.ingest(t, "lovely stay at the Lumiere Hotel in Paris, great staff", "u1")
	w.ingest(t, "the Orangerie Hotel in Versailles was wonderful and cheap", "u2")
	w.ingest(t, "great weekend at the Spree Hotel in Berlin", "u3")

	ex, err := w.ie.Extract(context.Background(), "What are the good cheap hotels near Paris?", "asker", t0)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Type != extract.TypeRequest {
		t.Fatalf("request misclassified: %s", ex.Type)
	}
	ans, err := w.qa.Answer(context.Background(), ex)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ans.Query, "near($x, 48.85") {
		t.Errorf("query lacks spatial predicate: %q", ans.Query)
	}
	low := strings.ToLower(ans.Text)
	if !strings.Contains(low, "lumiere hotel") {
		t.Errorf("answer missing the Paris hotel: %s", ans.Text)
	}
	if !strings.Contains(low, "orangerie hotel") {
		t.Errorf("answer missing the Versailles hotel (spatial radius should cover it): %s", ans.Text)
	}
	if strings.Contains(low, "spree hotel") {
		t.Errorf("answer leaked the Berlin hotel: %s", ans.Text)
	}
	if !strings.Contains(low, "near paris") {
		t.Errorf("answer should locate the results near Paris: %s", ans.Text)
	}
}

// TestFormulatedQueryBytes pins the exact Answer.Query of every branch
// of formulate: the string is on the wire, keys the answer cache and is
// what readpath plans from, so a change of one byte is a change of
// behaviour.
func TestFormulatedQueryBytes(t *testing.T) {
	w := newWorld(t)
	cases := []struct {
		name, question, want string
	}{
		{"tourism city and positive",
			"Can anyone recommend a good, but not ridiculously expensive hotel right in the middle of Berlin?",
			`topk(3, for $x in //Hotels where $x/City == "Berlin" and $x/User_Attitude == "Positive" orderby score($x) return $x)`},
		{"tourism near and positive",
			"What are the good cheap hotels near Paris?",
			`topk(3, for $x in //Hotels where near($x, 48.8500, 2.3500, 20000) and $x/User_Attitude == "Positive" orderby score($x) return $x)`},
		{"tourism near, negative latitude",
			"any good hotels near Nairobi?",
			`topk(3, for $x in //Hotels where near($x, -1.2900, 36.8200, 20000) and $x/User_Attitude == "Positive" orderby score($x) return $x)`},
		{"tourism distance",
			"any hotels 5km from Paris?",
			`topk(3, for $x in //Hotels where near($x, 48.8500, 2.3500, 5000) orderby score($x) return $x)`},
		{"tourism no location",
			"any good hotels?",
			`topk(3, for $x in //Hotels where $x/User_Attitude == "Positive" orderby score($x) return $x)`},
		{"tourism no condition",
			"which hotels are open?",
			`topk(3, for $x in //Hotels orderby score($x) return $x)`},
		{"traffic place",
			"any traffic in Nairobi this morning?",
			`topk(3, for $x in //RoadReports where $x/Place == "Nairobi" orderby score($x) return $x)`},
		{"traffic no place",
			"any traffic this morning?",
			`topk(3, for $x in //RoadReports orderby score($x) return $x)`},
		{"farming region",
			"any locusts in Nairobi this week?",
			`topk(3, for $x in //FarmReports where $x/Region == "Nairobi" orderby score($x) return $x)`},
		{"not understood",
			"what is the meaning of it all?",
			``},
	}
	for _, c := range cases {
		ex, err := w.ie.Extract(context.Background(), c.question, "asker", t0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ans, err := w.qa.Answer(context.Background(), ex)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if ans.Query != c.want {
			t.Errorf("%s: query\n got %s\nwant %s", c.name, ans.Query, c.want)
		}
	}
}

// TestNearUnknownPlaceFallsBack: if the relation object is not in the
// gazetteer the service must not formulate a spatial predicate.
func TestNearUnknownPlaceFallsBack(t *testing.T) {
	w := newWorld(t)
	w.ingest(t, "lovely stay at the Lumiere Hotel in Paris", "u1")
	ex, err := w.ie.Extract(context.Background(), "any good hotels near Atlantis?", "asker", t0)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := w.qa.Answer(context.Background(), ex)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(ans.Query, "near(") {
		t.Errorf("query should not contain spatial predicate for unknown place: %q", ans.Query)
	}
}
