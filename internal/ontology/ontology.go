// Package ontology is the in-process stand-in for the paper's "Open Linked
// Data" module: a geo-ontology with a concept taxonomy, a domain lexicon,
// and place-containment facts, consulted by extraction, disambiguation,
// integration and question answering ("All the modules make use of web
// ontologies to enrich and improve the data", paper §Modules description).
package ontology

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/gazetteer"
	"repro/internal/text"
)

// Concept is a node of the taxonomy, identified by a lowercase name.
type Concept struct {
	Name   string
	Parent string // empty for roots
}

// Ontology holds the taxonomy, lexicon and containment facts. Reads are
// safe for concurrent use.
type Ontology struct {
	mu       sync.RWMutex
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
	must(o.AddConcept("place", ""))
	must(o.AddConcept("lodging", "place"))
	must(o.AddConcept("hotel", "lodging"))
	must(o.AddConcept("hostel", "lodging"))
	must(o.AddConcept("food", "place"))
	must(o.AddConcept("restaurant", "food"))
	must(o.AddConcept("bar", "food"))
	must(o.AddConcept("transport", "place"))
	must(o.AddConcept("road", "transport"))
	must(o.AddConcept("station", "transport"))
	must(o.AddConcept("agriculture", ""))
	must(o.AddConcept("crop", "agriculture"))
	must(o.AddConcept("pest", "agriculture"))
	must(o.AddConcept("market", "agriculture"))
	must(o.AddConcept("weather", ""))
	must(o.AddConcept("traffic", "transport"))
	// Road states: the Condition alternatives a traffic report can assert.
	// Distinct states make newest-wins integration meaningful — "clear"
	// supersedes "congested" rather than pooling with it.
	must(o.AddConcept("congested", "traffic"))
	must(o.AddConcept("blocked", "traffic"))
	must(o.AddConcept("flooded_road", "traffic"))
	must(o.AddConcept("clear_road", "traffic"))
	must(o.AddConcept("city", "place"))
	must(o.AddConcept("country", "place"))

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
		must(o.AddLexeme(w, c))
	}
}

// AddConcept inserts a concept under the given parent ("" for a root).
// The parent must already exist.
func (o *Ontology) AddConcept(name, parent string) error {
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" {
		return fmt.Errorf("ontology: empty concept name")
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if parent != "" {
		if _, ok := o.concepts[parent]; !ok {
			return fmt.Errorf("ontology: parent concept %q not found", parent)
		}
	}
	o.concepts[name] = Concept{Name: name, Parent: parent}
	return nil
}

// AddLexeme maps a surface word to a concept, which must exist.
func (o *Ontology) AddLexeme(word, concept string) error {
	word = strings.ToLower(strings.TrimSpace(word))
	if word == "" {
		return fmt.Errorf("ontology: empty lexeme")
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, ok := o.concepts[concept]; !ok {
		return fmt.Errorf("ontology: concept %q not found for lexeme %q", concept, word)
	}
	o.lexicon[word] = concept
	return nil
}

// ConceptOf returns the concept a surface word evokes, if any.
func (o *Ontology) ConceptOf(word string) (string, bool) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	c, ok := o.lexicon[strings.ToLower(word)]
	return c, ok
}

// IsA reports whether concept `name` is (transitively) a kind of
// `ancestor`. A concept is a kind of itself.
func (o *Ontology) IsA(name, ancestor string) bool {
	name = strings.ToLower(name)
	ancestor = strings.ToLower(ancestor)
	o.mu.RLock()
	defer o.mu.RUnlock()
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

// Ancestors returns the concept chain from name (exclusive) to its root.
func (o *Ontology) Ancestors(name string) []string {
	o.mu.RLock()
	defer o.mu.RUnlock()
	var out []string
	cur, ok := o.concepts[strings.ToLower(name)]
	if !ok {
		return nil
	}
	for cur.Parent != "" {
		out = append(out, cur.Parent)
		next, ok := o.concepts[cur.Parent]
		if !ok {
			break
		}
		cur = next
	}
	return out
}

// CountryOf returns the containing country code recorded for a place.
func (o *Ontology) CountryOf(place string) (string, bool) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	c, ok := o.contains[text.NormalizeName(place)]
	return c, ok
}

// LoadContainment derives containment facts from a gazetteer: each distinct
// city name maps to the country of its most populous reference, the same
// "prominence" default GeoNames-based resolvers use. Among namesakes tied
// on population the lowest ID wins, so the facts are the same on every
// load.
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
	o.mu.Lock()
	defer o.mu.Unlock()
	for norm, e := range best {
		o.contains[norm] = e.Country
	}
}

// Concepts returns all concept names, sorted, mainly for diagnostics.
func (o *Ontology) Concepts() []string {
	o.mu.RLock()
	defer o.mu.RUnlock()
	out := make([]string, 0, len(o.concepts))
	for name := range o.concepts {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
