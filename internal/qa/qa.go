// Package qa is the paper's Question Answering (QA) service: "receives the
// request keywords from the IE service, formulates the XML query, runs
// this query on the DB, retrieves the results, applies some inference on
// the results using geo-ontology if needed and sends the results back to
// the user in the form of natural language generated text".
package qa

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/extract"
	"repro/internal/gazetteer"
	"repro/internal/geo"
	"repro/internal/kb"
	"repro/internal/ner"
	"repro/internal/obs"
	"repro/internal/xmldb"
)

// Ask-path breakdown inside the QA service: the store fan-out (Run
// crosses every shard in a partitioned deployment) versus ranking,
// filtering and natural-language generation.
var (
	mQAStageSeconds = obs.Default().Histogram("neogeo_qa_stage_seconds",
		"QA sub-stage wall time per answered request.", nil, "stage")
	qaStoreQuery = mQAStageSeconds.With("store_query")
	qaRank       = mQAStageSeconds.With("rank")
)

// Store is the query surface QA needs from the database: the sharded
// *shard.Store, which fans the query out and records one child span per
// shard on the request's timeline.
type Store interface {
	RunContext(ctx context.Context, query string) ([]xmldb.Result, error)
}

// Span names of the QA sub-stages (bounded constants).
const (
	spanStoreQuery = "store_query"
	spanRank       = "rank"
)

// Service is the QA module.
type Service struct {
	db  Store
	kb  *kb.KB
	gaz *gazetteer.Gazetteer
	// K is the number of results returned (paper uses topk(3, …)).
	K int
	// MinCondP drops results whose where-clause probability falls below
	// this threshold: a hotel that is probably NOT good should not appear
	// in a "good hotels" answer even if topk has room for it.
	MinCondP float64
}

// NewService wires the QA service around a query store (a single
// database or a sharded one).
func NewService(db Store, k *kb.KB, g *gazetteer.Gazetteer) (*Service, error) {
	if db == nil || k == nil || g == nil {
		return nil, fmt.Errorf("qa: nil dependency")
	}
	return &Service{db: db, kb: k, gaz: g, K: 3, MinCondP: 0.5}, nil
}

// Answer is the QA output for one request.
type Answer struct {
	// Text is the generated natural-language reply.
	Text string
	// Query is the formulated XML query, for transparency/debugging (the
	// paper shows it explicitly in the worked scenario).
	Query string
	// Results are the underlying ranked records.
	Results []xmldb.Result
}

// request captures what the QA service understood from the keywords.
type request struct {
	domain    kb.Domain
	city      string
	cityFound bool
	positive  bool   // asked for good/nice/recommended
	cheap     bool   // asked for cheap / not expensive
	place     string // traffic/farming place keyword
	// nearPlace/nearPoint/nearRadius ground a proximity request ("What
	// are the good/cheap hotels near Paris?", paper §Alternative
	// Validation Scenario) as a spatial predicate instead of a City
	// equality — hotels near Paris need not be in Paris.
	nearPlace  string
	nearPoint  *geo.Point
	nearRadius float64
}

// Answer answers a request-message extraction. The store query and the
// rank/generate half each get a span on the request timeline.
func (s *Service) Answer(ctx context.Context, ex *extract.Extraction) (Answer, error) {
	if ex == nil {
		return Answer{}, fmt.Errorf("qa: nil extraction")
	}
	req, ok := s.analyze(ex)
	if !ok {
		return Answer{
			Text: "Sorry, I could not understand what you are looking for.",
		}, nil
	}
	query := s.formulate(req)
	runCtx, run := obs.Stage(ctx, spanStoreQuery, qaStoreQuery)
	results, err := s.db.RunContext(runCtx, query)
	run.SetInt("candidates", len(results))
	run.End(err)
	if err != nil {
		return Answer{}, fmt.Errorf("qa: executing %q: %w", query, err)
	}
	_, rank := obs.Stage(ctx, spanRank, qaRank)
	kept := results[:0]
	for _, r := range results {
		if r.CondP >= s.MinCondP {
			kept = append(kept, r)
		}
	}
	results = kept
	ans := Answer{
		Text:    s.generate(req, results),
		Query:   query,
		Results: results,
	}
	rank.SetInt("results", len(results))
	rank.End(nil)
	return ans, nil
}

// analyze maps the extraction's domain, keywords and entities onto a
// location and qualifiers. The domain is extraction's: every lexicon
// word scores one, so a question whose words evoke no domain has none.
func (s *Service) analyze(ex *extract.Extraction) (request, bool) {
	var req request
	d, ok := s.kb.Domain(ex.Domain)
	if !ok {
		return req, false
	}
	req.domain = d

	// Location: prefer a recognised location entity; else a gazetteer hit
	// among keywords.
	for _, e := range ex.Entities {
		if e.Type == ner.TypeLocation {
			req.city = e.Text
			req.cityFound = true
			break
		}
	}
	if !req.cityFound {
		for _, w := range ex.Keywords {
			if s.gaz.HasName(w) {
				req.city = w
				req.cityFound = true
				break
			}
		}
	}
	// A resolved location entity is the most reliable place reference;
	// relation objects ("near the station") fill in when no toponym was
	// recognised.
	if req.cityFound {
		req.place = req.city
	} else {
		for _, r := range ex.Relations {
			if r.Object != "" {
				req.place = r.Object
				break
			}
		}
	}

	// Proximity request ("hotels near Paris", "within 5 km of Nairobi"):
	// ground the relation's object against the gazetteer and query the
	// spatial index rather than demanding City equality.
	for _, r := range ex.Relations {
		if r.Object == "" || (r.Kind != ner.RelProximity && r.Kind != ner.RelDistance) {
			continue
		}
		p, ok := s.resolvePlace(r.Object)
		if !ok {
			continue
		}
		req.nearPlace = r.Object
		req.nearPoint = &p
		req.nearRadius = r.DistanceMeters
		if req.nearRadius == 0 {
			req.nearRadius = defaultNearMeters
		}
		break
	}

	for _, w := range ex.Keywords {
		switch w {
		case "good", "nice", "best", "great", "recommend", "recommended", "lovely":
			req.positive = true
		case "cheap", "affordable", "budget", "inexpensive":
			req.cheap = true
		case "expensive":
			// "not ridiculously expensive" normalises with "not" as a
			// separate keyword; treat any expensive-mention as a price
			// concern.
			req.cheap = true
		}
	}
	return req, true
}

// defaultNearMeters is the radius implied by an unquantified "near X" in a
// request about lodging/venues.
const defaultNearMeters = 20_000

// resolvePlace grounds a request-time place reference to a point, taking
// the most prominent (highest-population) gazetteer reference — request
// messages carry too little context for full disambiguation, and for a
// question the population prior is the user's most likely intent.
func (s *Service) resolvePlace(name string) (geo.Point, bool) {
	entries := s.gaz.Lookup(name)
	if len(entries) == 0 {
		return geo.Point{}, false
	}
	best := entries[0]
	for _, e := range entries[1:] {
		if e.Population > best.Population {
			best = e
		}
	}
	return best.Location, true
}

// formulate builds the query string — for the tourism scenario, exactly
// the paper's topk query.
func (s *Service) formulate(req request) string {
	q := xmldb.Query{TopK: s.K, Collection: req.domain.Collection, OrderByScore: true}
	equal := func(field, value string) {
		q.Where = append(q.Where, xmldb.Equal{Path: field, Value: value})
	}
	switch req.domain.Name {
	case "tourism":
		switch {
		case req.nearPoint != nil:
			q.Near = &xmldb.Near{Center: *req.nearPoint, RadiusMeters: req.nearRadius}
		case req.cityFound:
			equal("City", titleWord(req.city))
		}
		if req.positive {
			equal("User_Attitude", "Positive")
		}
	case "traffic":
		if req.place != "" {
			equal("Place", titleWord(req.place))
		}
	case "farming":
		if req.place != "" {
			equal("Region", titleWord(req.place))
		}
	}
	return q.String()
}

// generate renders the natural-language answer.
func (s *Service) generate(req request, results []xmldb.Result) string {
	if len(results) == 0 {
		where := ""
		switch {
		case req.nearPlace != "":
			where = " near " + titleWord(req.nearPlace)
		case req.cityFound:
			where = " in " + titleWord(req.city)
		case req.place != "":
			where = " near " + req.place
		}
		return fmt.Sprintf("Sorry, I have no information about %s%s yet.",
			strings.TrimSuffix(req.domain.Collection, "s"), where)
	}
	switch req.domain.Name {
	case "tourism":
		names := make([]string, 0, len(results))
		for _, r := range results {
			if n, _ := r.Record.Doc.FirstChild("Hotel_Name"); n != nil {
				names = append(names, n.TextContent())
			}
		}
		qualifier := "good "
		if !req.positive {
			qualifier = ""
		}
		if req.cheap {
			qualifier += "affordable "
		}
		where := ""
		switch {
		case req.nearPlace != "":
			where = " near " + titleWord(req.nearPlace)
		case req.cityFound:
			where = " in " + titleWord(req.city)
		}
		return fmt.Sprintf("Some %shotels%s are %s.", qualifier, where, joinNatural(names))
	case "traffic":
		var parts []string
		for _, r := range results {
			place := fieldText(r, "Place")
			cond := topAlt(r, "Condition")
			parts = append(parts, fmt.Sprintf("%s: %s reported (certainty %.2f)", place, cond, r.Score))
		}
		return "Latest road reports — " + strings.Join(parts, "; ") + "."
	case "farming":
		var parts []string
		for _, r := range results {
			region := fieldText(r, "Region")
			topic := topAlt(r, "Topic")
			parts = append(parts, fmt.Sprintf("%s: %s (certainty %.2f)", region, topic, r.Score))
		}
		return "Latest field reports — " + strings.Join(parts, "; ") + "."
	default:
		return fmt.Sprintf("Found %d matching records.", len(results))
	}
}

func fieldText(r xmldb.Result, field string) string {
	if n, _ := r.Record.Doc.FirstChild(field); n != nil {
		return n.TextContent()
	}
	return "unknown"
}

func topAlt(r xmldb.Result, field string) string {
	n, _ := r.Record.Doc.FirstChild(field)
	if n == nil {
		return "unknown"
	}
	dist := extract.MuxToDist(n)
	if top, ok := dist.Top(); ok {
		// Concept identifiers read as prose ("flooded_road" -> "flooded road").
		return strings.ReplaceAll(top.Name, "_", " ")
	}
	return "unknown"
}

// joinNatural renders "A, B, C" as "A, B and C".
func joinNatural(names []string) string {
	switch len(names) {
	case 0:
		return "none"
	case 1:
		return names[0]
	default:
		return strings.Join(names[:len(names)-1], ", ") + " and " + names[len(names)-1]
	}
}

// titleWord uppercases the first letter of each word for display and for
// matching stored City values ("berlin" -> "Berlin").
func titleWord(s string) string {
	words := strings.Fields(s)
	for i, w := range words {
		if len(w) > 0 {
			words[i] = strings.ToUpper(w[:1]) + w[1:]
		}
	}
	return strings.Join(words, " ")
}
