package extract

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/gazetteer"
	"repro/internal/geo"
	"repro/internal/kb"
	"repro/internal/ontology"
	"repro/internal/pxml"
	"repro/internal/sentiment"
	"repro/internal/uncertain"
)

func testService(t *testing.T) *Service {
	t.Helper()
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
	add("Cairo", 30.04, 31.23, "EG", 9_500_000)
	add("Nairobi", -1.29, 36.82, "KE", 4_400_000)
	g, err := gazetteer.New(entries)
	if err != nil {
		t.Fatal(err)
	}
	o := ontology.New()
	o.LoadContainment(g)
	s, err := NewService(kb.New(), g, o, newTrust(t).Reliability, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var scenarioTime = time.Date(2011, 4, 1, 9, 0, 0, 0, time.UTC)

func TestClassifyTypePaperMessages(t *testing.T) {
	s := testService(t)
	informatives := []string{
		"berlin has some nice hotels i just loved the hetero friendly love that word Axel Hotel in Berlin.",
		"Good morning Berlin. The sun is out!!!! Very impressed by the customer service at #movenpick hotel in berlin. Well done guys!",
		"In Berlin hotel room, nice enough, weather grim however",
	}
	for _, m := range informatives {
		if got, _ := s.ClassifyType(m); got != TypeInformative {
			t.Errorf("message %q classified %s", m, got)
		}
	}
	req := "Can anyone recommend a good, but not ridiculously expensive hotel right in the middle of Berlin?"
	if got, _ := s.ClassifyType(req); got != TypeRequest {
		t.Errorf("request classified as informative")
	}
}

func TestExtractTemplate1(t *testing.T) {
	s := testService(t)
	ex, err := s.Extract(context.Background(), "berlin has some nice hotels i just loved the hetero friendly love that word Axel Hotel in Berlin.", "user1", scenarioTime)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Type != TypeInformative {
		t.Fatalf("type = %s", ex.Type)
	}
	if ex.Domain != "tourism" {
		t.Fatalf("domain = %q", ex.Domain)
	}
	if len(ex.Templates) == 0 {
		t.Fatal("no templates")
	}
	tpl := ex.Templates[0]
	if got := tpl.Fields["Hotel_Name"].Text; !strings.Contains(strings.ToLower(got), "axel hotel") {
		t.Errorf("Hotel_Name = %q", got)
	}
	if got := tpl.Fields["Location"].Text; !strings.EqualFold(got, "Berlin") {
		t.Errorf("Location = %q", got)
	}
	// Country: P(Germany) > P(USA), per the paper's template table.
	country := tpl.Fields["Country"].Dist
	if country == nil {
		t.Fatal("no Country distribution")
	}
	if country.P("Germany") <= country.P("United States") {
		t.Errorf("country dist = %v", country.Normalized())
	}
	// User_Attitude: P(Positive) > P(Negative).
	att := tpl.Fields["User_Attitude"].Dist
	if att == nil {
		t.Fatal("no attitude")
	}
	if att.P(sentiment.Positive) <= att.P(sentiment.Negative) {
		t.Errorf("attitude = %v", att.Normalized())
	}
	if tpl.Certainty <= 0 {
		t.Errorf("certainty = %v", tpl.Certainty)
	}
	if tpl.Location == nil {
		t.Error("no resolved location")
	} else if tpl.Location.DistanceMeters(geo.Point{Lat: 52.52, Lon: 13.405}) > 1000 {
		t.Errorf("resolved to %v, want Berlin DE", tpl.Location)
	}
}

func TestExtractTemplate3NestedHotel(t *testing.T) {
	s := testService(t)
	ex, err := s.Extract(context.Background(), "In Berlin hotel room, nice enough, weather grim however", "user3", scenarioTime)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Templates) == 0 {
		t.Fatal("no templates")
	}
	tpl := ex.Templates[0]
	if got := strings.ToLower(tpl.Fields["Hotel_Name"].Text); got != "berlin hotel" {
		t.Errorf("Hotel_Name = %q", got)
	}
	if got := tpl.Fields["Location"].Text; !strings.EqualFold(got, "berlin") {
		t.Errorf("Location = %q", got)
	}
	att := tpl.Fields["User_Attitude"].Dist
	if att == nil || att.P(sentiment.Positive) <= att.P(sentiment.Negative) {
		t.Errorf("Template 3 attitude should be positive: %v", att)
	}
}

func TestExtractRequestNoTemplates(t *testing.T) {
	s := testService(t)
	ex, err := s.Extract(context.Background(), "Can anyone recommend a good, but not ridiculously expensive hotel right in the middle of Berlin?", "asker", scenarioTime)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Type != TypeRequest {
		t.Fatalf("type = %s", ex.Type)
	}
	if len(ex.Templates) != 0 {
		t.Errorf("request produced templates: %+v", ex.Templates)
	}
	// Keywords include the essentials the QA module needs: hotel, berlin,
	// good, expensive.
	joined := strings.Join(ex.Keywords, " ")
	for _, kw := range []string{"hotel", "berlin", "good", "expensive"} {
		if !strings.Contains(joined, kw) {
			t.Errorf("keywords missing %q: %v", kw, ex.Keywords)
		}
	}
}

func TestExtractPrice(t *testing.T) {
	s := testService(t)
	ex, err := s.Extract(context.Background(), "Essex House Hotel and Suites from $154 USD: Surrounded by clubs and designer", "pricebot", scenarioTime)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Templates) == 0 {
		t.Fatal("no templates")
	}
	price, ok := ex.Templates[0].Fields["Price"]
	if !ok {
		t.Fatal("no price field")
	}
	if price.Num != 154 {
		t.Errorf("price = %v", price.Num)
	}
}

func TestExtractTraffic(t *testing.T) {
	s := testService(t)
	ex, err := s.Extract(context.Background(), "huge traffic jam in Nairobi after the accident, road blocked", "driver7", scenarioTime)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Domain != "traffic" {
		t.Fatalf("domain = %q", ex.Domain)
	}
	if len(ex.Templates) != 1 {
		t.Fatalf("templates = %d", len(ex.Templates))
	}
	tpl := ex.Templates[0]
	if !strings.EqualFold(tpl.Fields["Place"].Text, "Nairobi") {
		t.Errorf("Place = %q", tpl.Fields["Place"].Text)
	}
	cond := tpl.Fields["Condition"].Dist
	if cond == nil {
		t.Fatal("no condition")
	}
	if cond.P("traffic") <= 0 {
		t.Errorf("condition dist = %v", cond.Normalized())
	}
	if tpl.Location == nil {
		t.Error("traffic report location unresolved")
	}
}

func TestExtractFarming(t *testing.T) {
	s := testService(t)
	ex, err := s.Extract(context.Background(), "locust swarm near Cairo moving south, maize fields at risk", "farmer2", scenarioTime)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Domain != "farming" {
		t.Fatalf("domain = %q", ex.Domain)
	}
	if len(ex.Templates) != 1 {
		t.Fatalf("templates = %d", len(ex.Templates))
	}
	tpl := ex.Templates[0]
	topic := tpl.Fields["Topic"].Dist
	if topic == nil || topic.P("pest") <= 0 {
		t.Errorf("topic = %v", topic)
	}
	if _, ok := tpl.Fields["Observation"]; !ok {
		t.Error("no observation")
	}
}

func TestExtractErrors(t *testing.T) {
	s := testService(t)
	if _, err := s.Extract(context.Background(), "", "x", scenarioTime); err == nil {
		t.Error("empty message accepted")
	}
	if _, err := s.Extract(context.Background(), "   ", "x", scenarioTime); err == nil {
		t.Error("blank message accepted")
	}
	if _, err := NewService(nil, nil, nil, nil, nil); err == nil {
		t.Error("nil deps accepted")
	}
}

func TestExtractNoDomain(t *testing.T) {
	s := testService(t)
	ex, err := s.Extract(context.Background(), "just thinking about life today", "muser", scenarioTime)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Templates) != 0 {
		t.Errorf("templates from domainless message: %+v", ex.Templates)
	}
}

func TestTemplateToDoc(t *testing.T) {
	s := testService(t)
	ex, err := s.Extract(context.Background(), "Good morning Berlin. Very impressed by the customer service at #movenpick hotel in berlin.", "user2", scenarioTime)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Templates) == 0 {
		t.Fatal("no templates")
	}
	doc, err := ex.Templates[0].ToDoc()
	if err != nil {
		t.Fatal(err)
	}
	if doc.Tag != "Hotel" {
		t.Errorf("root tag = %q", doc.Tag)
	}
	// Country is a mux distribution; Germany most probable.
	p := pxml.ValueProb(doc, "Hotel/Country", "Germany")
	if p <= pxml.ValueProb(doc, "Hotel/Country", "United States") {
		t.Errorf("P(Germany)=%v not dominant", p)
	}
	// Attitude round-trips through MuxToDist.
	attField, _ := doc.FirstChild("User_Attitude")
	if attField == nil {
		t.Fatal("no attitude element")
	}
	dist := MuxToDist(attField)
	if dist.P(sentiment.Positive) <= dist.P(sentiment.Negative) {
		t.Errorf("round-trip attitude = %v", dist.Normalized())
	}
	// Serialises cleanly.
	if _, err := pxml.Marshal(doc); err != nil {
		t.Errorf("marshal: %v", err)
	}
	// Geo coordinates present.
	if p := pxml.PathProb(doc, "Hotel/Geo/Lat"); p != 1 {
		t.Errorf("no geo: %v", p)
	}
}

func TestToDocDeterministicOrder(t *testing.T) {
	s := testService(t)
	ex, err := s.Extract(context.Background(), "loved the Axel Hotel in Berlin", "u", scenarioTime)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Templates) == 0 {
		t.Fatal("no templates")
	}
	d1, err := ex.Templates[0].ToDoc()
	if err != nil {
		t.Fatal(err)
	}
	s1, err := pxml.Marshal(d1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := ex.Templates[0].ToDoc()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := pxml.Marshal(d2)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Error("ToDoc not deterministic")
	}
}

func TestDistToMuxErrors(t *testing.T) {
	if _, err := DistToMux(nil); err == nil {
		t.Error("nil dist accepted")
	}
}

// TestExtractTemporalObservation: a temporal expression in an event message
// dates the template's observation (the "when" of W4) instead of its
// arrival time.
func TestExtractTemporalObservation(t *testing.T) {
	s := testService(t)
	now := time.Date(2011, 4, 1, 14, 30, 0, 0, time.UTC)

	ex, err := s.Extract(context.Background(), "road near Nairobi flooded 2 hours ago, take the detour", "driver", now)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Templates) == 0 {
		t.Fatal("no template extracted")
	}
	tpl := ex.Templates[0]
	want := now.Add(-2 * time.Hour)
	if d := tpl.Extracted.Sub(want); d < -15*time.Minute || d > 15*time.Minute {
		t.Errorf("Extracted = %v, want ≈ %v", tpl.Extracted, want)
	}

	// Without a temporal expression, the observation time is the arrival.
	ex2, err := s.Extract(context.Background(), "road near Nairobi flooded, take the detour", "driver", now)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex2.Templates) == 0 {
		t.Fatal("no template extracted")
	}
	if !ex2.Templates[0].Extracted.Equal(now) {
		t.Errorf("Extracted = %v, want arrival time %v", ex2.Templates[0].Extracted, now)
	}
}

// newTrust returns a source-trust model with the system's starting
// parameters (core.NewTrustModel).
func newTrust(t testing.TB) *uncertain.TrustModel {
	t.Helper()
	m, err := uncertain.NewTrustModel(0.6, 4)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
