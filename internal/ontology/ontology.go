// Package ontology is the in-process stand-in for the paper's "Open Linked
// Data" module: a geo-ontology with a concept taxonomy, a domain lexicon,
// and place-containment facts, consulted by extraction, disambiguation,
// integration and question answering ("All the modules make use of web
// ontologies to enrich and improve the data", paper §Modules description).
package ontology

import (
	"fmt"
	"strings"

	"repro/internal/gazetteer"
	"repro/internal/text"
)

// Concept is a node of the taxonomy, identified by a lowercase name.
type Concept struct {
	Name   string
	Parent string // empty for roots
}

// Ontology holds the taxonomy, lexicon and containment facts. New and
// LoadContainment build it; once built and shared it is only read, so
// reads take no lock.
type Ontology struct {
	concepts map[string]Concept
	// lexicon maps a surface word to the concept it evokes
	// ("inn" -> "hotel").
	lexicon map[string]string
	// contains maps a normalised place name to the code of the country
	// that (most prominently) contains it.
	contains map[string]string
}

// New returns an ontology preloaded with the tourism/traffic/farming
// domain taxonomy the validation scenarios need.
func New() *Ontology {
	o := &Ontology{
		concepts: make(map[string]Concept),
		lexicon:  make(map[string]string),
		contains: make(map[string]string),
	}
	o.seedTaxonomy()
	return o
}

func (o *Ontology) seedTaxonomy() {
	must := func(err error) {
		if err != nil {
			panic(err) // seed data is static; failure is a programming error
		}
	}
	must(o.addConcept("place", ""))
	must(o.addConcept("lodging", "place"))
	must(o.addConcept("hotel", "lodging"))
	must(o.addConcept("hostel", "lodging"))
	must(o.addConcept("food", "place"))
	must(o.addConcept("restaurant", "food"))
	must(o.addConcept("bar", "food"))
	must(o.addConcept("transport", "place"))
	must(o.addConcept("road", "transport"))
	must(o.addConcept("station", "transport"))
	must(o.addConcept("agriculture", ""))
	must(o.addConcept("crop", "agriculture"))
	must(o.addConcept("pest", "agriculture"))
	must(o.addConcept("market", "agriculture"))
	must(o.addConcept("weather", ""))
	must(o.addConcept("traffic", "transport"))
	// Road states: the Condition alternatives a traffic report can assert.
	// Distinct states make newest-wins integration meaningful — "clear"
	// supersedes "congested" rather than pooling with it.
	must(o.addConcept("congested", "traffic"))
	must(o.addConcept("blocked", "traffic"))
	must(o.addConcept("flooded_road", "traffic"))
	must(o.addConcept("clear_road", "traffic"))
	must(o.addConcept("city", "place"))
	must(o.addConcept("country", "place"))

	lex := map[string]string{
		// Lodging.
		"hotel": "hotel", "hotels": "hotel", "inn": "hotel", "suites": "hotel",
		"resort": "hotel", "motel": "hotel", "hostel": "hostel", "lodge": "hotel",
		"guesthouse": "hotel", "b&b": "hotel",
		// Food.
		"restaurant": "restaurant", "cafe": "restaurant", "grill": "restaurant",
		"bar": "bar", "pub": "bar", "club": "bar", "bistro": "restaurant",
		// Transport / traffic.
		"road": "road", "highway": "road", "street": "road", "bridge": "road",
		"station": "station", "airport": "station", "port": "station",
		"traffic": "traffic", "detour": "traffic",
		"checkpoint": "traffic", "pothole": "traffic",
		"jam": "congested", "congestion": "congested", "gridlock": "congested",
		"accident": "blocked", "roadblock": "blocked", "blocked": "blocked",
		"flooded": "flooded_road", "washout": "flooded_road",
		"clear": "clear_road", "passable": "clear_road", "flowing": "clear_road",
		// Agriculture.
		"crop": "crop", "maize": "crop", "wheat": "crop", "rice": "crop",
		"cassava": "crop", "sorghum": "crop", "beans": "crop", "coffee": "crop",
		"harvest": "crop", "sow": "crop", "sowing": "crop", "planting": "crop",
		"locust": "pest", "locusts": "pest", "blight": "pest", "pest": "pest",
		"swarm": "pest", "fungus": "pest", "aphids": "pest",
		"market": "market", "price": "market", "prices": "market",
		"buyer": "market", "sell": "market", "selling": "market",
		// Weather.
		"rain": "weather", "rains": "weather", "drought": "weather",
		"storm": "weather", "flood": "weather", "frost": "weather",
		"sunny": "weather", "weather": "weather",
	}
	for w, c := range lex {
		must(o.addLexeme(w, c))
	}
}

// addConcept inserts a concept under the given parent ("" for a root).
// The parent must already exist.
func (o *Ontology) addConcept(name, parent string) error {
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" {
		return fmt.Errorf("ontology: empty concept name")
	}
	if parent != "" {
		if _, ok := o.concepts[parent]; !ok {
			return fmt.Errorf("ontology: parent concept %q not found", parent)
		}
	}
	o.concepts[name] = Concept{Name: name, Parent: parent}
	return nil
}

// addLexeme maps a surface word to a concept, which must exist.
func (o *Ontology) addLexeme(word, concept string) error {
	word = strings.ToLower(strings.TrimSpace(word))
	if word == "" {
		return fmt.Errorf("ontology: empty lexeme")
	}
	if _, ok := o.concepts[concept]; !ok {
		return fmt.Errorf("ontology: concept %q not found for lexeme %q", concept, word)
	}
	o.lexicon[word] = concept
	return nil
}

// ConceptOf returns the concept a surface word evokes, if any.
func (o *Ontology) ConceptOf(word string) (string, bool) {
	c, ok := o.lexicon[strings.ToLower(word)]
	return c, ok
}

// IsA reports whether concept `name` is (transitively) a kind of
// `ancestor`. A concept is a kind of itself.
func (o *Ontology) IsA(name, ancestor string) bool {
	name = strings.ToLower(name)
	ancestor = strings.ToLower(ancestor)
	for name != "" {
		if name == ancestor {
			return true
		}
		c, ok := o.concepts[name]
		if !ok {
			return false
		}
		name = c.Parent
	}
	return false
}

// EachLexeme calls fn for every lexicon entry, in no particular order.
func (o *Ontology) EachLexeme(fn func(word, concept string)) {
	for w, c := range o.lexicon {
		fn(w, c)
	}
}

// CountryOf returns the containing country code recorded for a place.
func (o *Ontology) CountryOf(place string) (string, bool) {
	c, ok := o.contains[text.NormalizeName(place)]
	return c, ok
}

// LoadContainment derives containment facts from a gazetteer: each distinct
// city name maps to the country of its most populous reference, the same
// "prominence" default GeoNames-based resolvers use. Among namesakes tied
// on population the lowest ID wins, so the facts are the same on every
// load. It is a build step: call it before the ontology is shared.
func (o *Ontology) LoadContainment(g *gazetteer.Gazetteer) {
	best := make(map[string]*gazetteer.Entry)
	g.EachEntry(func(e *gazetteer.Entry) bool {
		if e.Feature != gazetteer.FeatureCity {
			return true
		}
		cur, ok := best[e.NormName]
		if !ok || e.Population > cur.Population {
			best[e.NormName] = e
		}
		return true
	})
	for norm, e := range best {
		o.contains[norm] = e.Country
	}
}
