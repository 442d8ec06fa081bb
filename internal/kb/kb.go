// Package kb is the paper's Knowledge Base: "set of rules needed for the
// extraction process … generated from a set of training texts", plus the
// probabilistic policies used when integrating new information with the
// database. It stores domain definitions (which ontology concepts anchor a
// template, which fields it carries), labelled seed texts for the message-
// type classifier, and per-field conflict-resolution policies. A KB is
// fixed once New returns; what the system learns (source trust, the
// disambiguation priors) lives outside it.
package kb

import (
	"sort"

	"repro/internal/classify"
	"repro/internal/text"
	"repro/internal/uncertain"
)

// FieldKind describes how a template field is represented and integrated.
type FieldKind int

// Field kinds.
const (
	// FieldText is a plain extracted string (hotel name, road name).
	FieldText FieldKind = iota
	// FieldDist is a probability distribution over values (country).
	FieldDist
	// FieldAttitude is the Positive/Negative opinion distribution.
	FieldAttitude
	// FieldLocation is a resolved geographic reference.
	FieldLocation
	// FieldNumber is a numeric observation (price, delay minutes).
	FieldNumber
)

// FieldSpec declares one template field.
type FieldSpec struct {
	Name     string
	Kind     FieldKind
	Required bool
	// Policy resolves conflicts when integrating a new observation with a
	// stored one.
	Policy ConflictPolicy
}

// ConflictPolicy selects the integration behaviour for a field.
type ConflictPolicy int

// Conflict policies.
const (
	// PolicyMergeDist pools observations into a distribution (attitudes,
	// countries): contradiction is represented, not resolved.
	PolicyMergeDist ConflictPolicy = iota
	// PolicyTrustWeighted keeps the alternative whose accumulated trust-
	// weighted certainty is highest (prices, statuses).
	PolicyTrustWeighted
	// PolicyNewest keeps the most recent observation (traffic conditions:
	// "the validation of the information over time").
	PolicyNewest
)

// Domain declares one application domain's extraction template.
type Domain struct {
	// Name is the domain identifier ("tourism", "traffic", "farming").
	Name string
	// Collection is the XMLDB collection receiving this domain's records.
	Collection string
	// RecordTag is the pxml root tag ("Hotel", "RoadReport", "FarmReport").
	RecordTag string
	// AnchorConcepts are the ontology concepts whose mention marks a
	// message as belonging to this domain ("hotel", "traffic", "crop").
	AnchorConcepts []string
	// Fields are the template slots.
	Fields []FieldSpec
	// KeyField names the field identifying the real-world entity for
	// duplicate detection (e.g. "Hotel_Name").
	KeyField string
}

// KB is the knowledge base. It is immutable after New, so reads need no
// lock.
type KB struct {
	domains  []Domain // sorted by name
	seeds    []Seed
	ruleCF   map[string]uncertain.CF // extraction-rule reliabilities
	decayday float64                 // per-day certainty decay factor
}

// Seed is one labelled training text for the message-type classifier.
type Seed struct {
	Label string // "informative" or "request"
	Text  string
}

// Message-type labels.
const (
	LabelInformative = "informative"
	LabelRequest     = "request"
)

// New returns a knowledge base preloaded with the three validation-
// scenario domains and the default training seeds.
func New() *KB {
	k := &KB{
		domains:  defaultDomains(),
		seeds:    defaultSeeds(),
		decayday: 0.995,
		ruleCF: map[string]uncertain.CF{
			"facility-cue":    0.7,
			"gazetteer-exact": 0.8,
			"gazetteer-fuzzy": 0.5,
			"relation-phrase": 0.6,
		},
	}
	sort.Slice(k.domains, func(i, j int) bool { return k.domains[i].Name < k.domains[j].Name })
	return k
}

// defaultDomains declares the three validation-scenario templates.
func defaultDomains() []Domain {
	return []Domain{{
		Name:           "tourism",
		Collection:     "Hotels",
		RecordTag:      "Hotel",
		AnchorConcepts: []string{"hotel", "hostel", "restaurant", "bar"},
		KeyField:       "Hotel_Name",
		Fields: []FieldSpec{
			{Name: "Hotel_Name", Kind: FieldText, Required: true, Policy: PolicyTrustWeighted},
			{Name: "Location", Kind: FieldLocation, Required: false, Policy: PolicyTrustWeighted},
			{Name: "City", Kind: FieldText, Required: false, Policy: PolicyTrustWeighted},
			{Name: "Country", Kind: FieldDist, Required: false, Policy: PolicyMergeDist},
			{Name: "User_Attitude", Kind: FieldAttitude, Required: false, Policy: PolicyMergeDist},
			{Name: "Price", Kind: FieldNumber, Required: false, Policy: PolicyTrustWeighted},
		},
	}, {
		Name:           "traffic",
		Collection:     "RoadReports",
		RecordTag:      "RoadReport",
		AnchorConcepts: []string{"traffic", "road", "station"},
		KeyField:       "Place",
		Fields: []FieldSpec{
			{Name: "Place", Kind: FieldText, Required: true, Policy: PolicyTrustWeighted},
			{Name: "Location", Kind: FieldLocation, Required: false, Policy: PolicyTrustWeighted},
			{Name: "Condition", Kind: FieldDist, Required: true, Policy: PolicyNewest},
			{Name: "User_Attitude", Kind: FieldAttitude, Required: false, Policy: PolicyMergeDist},
		},
	}, {
		Name:           "farming",
		Collection:     "FarmReports",
		RecordTag:      "FarmReport",
		AnchorConcepts: []string{"crop", "pest", "market", "weather"},
		KeyField:       "Region",
		Fields: []FieldSpec{
			{Name: "Region", Kind: FieldText, Required: true, Policy: PolicyTrustWeighted},
			{Name: "Location", Kind: FieldLocation, Required: false, Policy: PolicyTrustWeighted},
			{Name: "Topic", Kind: FieldDist, Required: true, Policy: PolicyMergeDist},
			{Name: "Observation", Kind: FieldText, Required: false, Policy: PolicyNewest},
			{Name: "User_Attitude", Kind: FieldAttitude, Required: false, Policy: PolicyMergeDist},
		},
	}}
}

// Domain returns a domain by name.
func (k *KB) Domain(name string) (Domain, bool) {
	for _, d := range k.domains {
		if d.Name == name {
			return d, true
		}
	}
	return Domain{}, false
}

// Domains returns all domains sorted by name. The slice is the KB's own;
// callers must not modify it.
func (k *KB) Domains() []Domain { return k.domains }

// RuleCF returns the reliability of a named extraction rule (0 when
// unknown).
func (k *KB) RuleCF(rule string) uncertain.CF { return k.ruleCF[rule] }

// DecayPerDay returns the per-day certainty decay factor for time-
// sensitive facts.
func (k *KB) DecayPerDay() float64 { return k.decayday }

// Seeds returns the training corpus. The slice is the KB's own; callers
// must not modify it.
func (k *KB) Seeds() []Seed { return k.seeds }

// TrainTypeClassifier builds the informative-vs-request Naive Bayes
// classifier from the seed corpus ("These rules are generated from a set
// of training texts").
func (k *KB) TrainTypeClassifier() (*classify.NaiveBayes, error) {
	nb := classify.NewNaiveBayes()
	for _, s := range k.Seeds() {
		feats := typeFeatures(s.Text)
		if err := nb.Train(s.Label, feats); err != nil {
			return nil, err
		}
	}
	return nb, nil
}

// TypeFeatures extracts the classifier features for a message: normalised
// words plus surface cues (question mark, interrogative lead word).
func TypeFeatures(msg string) []string {
	return typeFeatures(msg)
}

func typeFeatures(msg string) []string {
	norm := text.Normalize(msg)
	toks := text.Tokenize(norm)
	feats := text.Words(toks)
	for _, tok := range toks {
		if tok.Kind == text.KindPunct && tok.Text[0] == '?' {
			feats = append(feats, "__question_mark__")
		}
	}
	if len(feats) > 0 {
		switch feats[0] {
		case "can", "could", "does", "is", "are", "what", "where", "which",
			"who", "how", "when", "any", "anyone", "recommend", "please", "pls":
			feats = append(feats, "__interrogative_start__")
		}
	}
	return feats
}

// defaultSeeds is the built-in training corpus: informal informative
// messages and requests across the three validation domains.
func defaultSeeds() []Seed {
	inf := []string{
		"berlin has some nice hotels i just loved the Axel Hotel in Berlin",
		"very impressed by the customer service at #movenpick hotel in berlin",
		"in berlin hotel room nice enough weather grim however",
		"the grand plaza was dirty and overpriced, avoid",
		"stayed at hotel lola great breakfast cheap rooms",
		"essex house hotel and suites from $154 usd surrounded by clubs",
		"huge traffic jam on the ring road near the stadium",
		"accident at the main bridge road blocked both ways",
		"road to the market is flooded take the northern detour",
		"traffic moving slowly past the checkpoint this morning",
		"locust swarm moving south of the river valley",
		"maize prices up at the central market today",
		"blight spotted on cassava fields near the lake",
		"good rains this week sowing beans tomorrow",
		"sold my coffee harvest at the cooperative for a fair price",
		"the station cafe does a lovely breakfast",
		"clean rooms and friendly staff at the riverside inn",
		"gr8 hotel pls visit the rooftop bar",
		"bedbugs in room 12 of the harbour hostel, terrible",
		"new year fireworks from the castle hill amazing view",
		// Status reports with temporal expressions — the crisis-reporting
		// register ("clear now", "N hours ago") reads like a question's
		// "near X" phrasing without these.
		"road near the bridge clear now water gone",
		"the jam cleared an hour ago traffic flowing again",
		"flooding reported 4 hours ago on the valley road",
		"accident near the market cleared this afternoon",
	}
	req := []string{
		"can anyone recommend a good but not ridiculously expensive hotel right in the middle of berlin?",
		"what are the good cheap hotels near paris?",
		"any good restaurant near the station?",
		"where can i find a clean hostel in cairo?",
		"is the road to the airport open?",
		"what is the best way to the market from the bridge?",
		"any traffic on the highway this morning?",
		"how are maize prices at the central market?",
		"when should i sow beans this season?",
		"anyone know a buyer for cassava near the lake?",
		"which hotel has the best breakfast in town?",
		"pls suggest a cheap place to stay 2nite",
		"is there a pharmacy near the main square?",
		"how long is the detour around the flooded road?",
		"r there any gd hotels nr the beach?",
		"could you recommend somewhere quiet to stay?",
		"what r the room prices at essex house?",
		"any locust sightings near the valley?",
		"is the north road safe after the storm?",
		"where do i catch the bus to the old town?",
	}
	out := make([]Seed, 0, len(inf)+len(req))
	for _, s := range inf {
		out = append(out, Seed{Label: LabelInformative, Text: s})
	}
	for _, s := range req {
		out = append(out, Seed{Label: LabelRequest, Text: s})
	}
	return out
}
