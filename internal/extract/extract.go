// Package extract is the paper's Information Extraction (IE) service: "the
// key service of the system". It classifies each message as informative or
// request, and for informative messages fills domain templates — the W4 of
// who/where/when/what — with certainty factors attached to every extracted
// value, delegating entity recognition to ner, geographic resolution to
// disambig, and attitude scoring to sentiment.
package extract

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/disambig"
	"repro/internal/gazetteer"
	"repro/internal/geo"
	"repro/internal/kb"
	"repro/internal/ner"
	"repro/internal/obs"
	"repro/internal/ontology"
	"repro/internal/sentiment"
	"repro/internal/text"
	"repro/internal/uncertain"

	"repro/internal/classify"
)

// Span names of the IE stages (bounded constants — the metriclabels
// analyzer enforces this at every StartSpan site).
const (
	spanClassify     = "classify"
	spanNER          = "ner"
	spanDisambiguate = "disambiguate"
)

// Service is the IE module.
type Service struct {
	kb       *kb.KB
	gaz      *gazetteer.Gazetteer
	ont      *ontology.Ontology
	ner      *ner.Extractor
	resolver *disambig.Resolver
	typer    *classify.NaiveBayes
}

// NewService wires the IE service and trains its message-type classifier
// from the knowledge base's seed corpus.
func NewService(k *kb.KB, g *gazetteer.Gazetteer, o *ontology.Ontology) (*Service, error) {
	if k == nil || g == nil || o == nil {
		return nil, fmt.Errorf("extract: nil dependency")
	}
	typer, err := k.TrainTypeClassifier()
	if err != nil {
		return nil, fmt.Errorf("extract: training type classifier: %w", err)
	}
	return &Service{
		kb:       k,
		gaz:      g,
		ont:      o,
		ner:      ner.NewExtractor(g, o),
		resolver: disambig.NewResolver(g, o),
		typer:    typer,
	}, nil
}

// Resolver exposes the geographic disambiguation resolver so the system
// can attach shared state (the feedback-learned Priors) at construction.
func (s *Service) Resolver() *disambig.Resolver { return s.resolver }

// MessageType is the IE service's first decision per message.
type MessageType string

// Message types, mirroring the paper's workflow rules.
const (
	TypeInformative MessageType = "informative"
	TypeRequest     MessageType = "request"
)

// ClassifyType labels a message informative or request with a posterior
// probability.
func (s *Service) ClassifyType(msg string) (MessageType, float64) {
	label, p := s.typer.PredictLabel(kb.TypeFeatures(msg))
	if label == kb.LabelRequest {
		return TypeRequest, p
	}
	return TypeInformative, p
}

// FieldValue is one filled template slot.
type FieldValue struct {
	Kind kb.FieldKind
	Text string
	Num  float64
	// Dist carries distribution-valued fields (Country, User_Attitude,
	// Condition, Topic).
	Dist *uncertain.Dist
	// CF is the slot-level extraction certainty.
	CF uncertain.CF
}

// Template is one filled extraction template (the paper's Template 1-3
// table).
type Template struct {
	Domain    string
	RecordTag string
	Fields    map[string]FieldValue
	// Certainty is the template-level confidence the DI service starts
	// from.
	Certainty uncertain.CF
	// Location is the resolved position when a Location field resolved.
	Location *geo.Point
	// LocationName is the surface name of the resolved location.
	LocationName string
	// Source is the contributing user, for trust accounting.
	Source string
	// Extracted is the extraction timestamp.
	Extracted time.Time
}

// Extraction is the full output for one message.
type Extraction struct {
	Message   string
	Type      MessageType
	TypeP     float64
	Domain    string
	Entities  []ner.Entity
	Relations []ner.Relation
	Templates []Template
	// Keywords supports the request workflow ("the IE extracts the
	// keywords of the request").
	Keywords []string
}

// Extract runs the full IE pipeline on one message. When ctx carries a
// recording span, each stage (classify, NER, disambiguate) shows up as
// a child on the request's timeline.
func (s *Service) Extract(ctx context.Context, msg, source string, now time.Time) (*Extraction, error) {
	if strings.TrimSpace(msg) == "" {
		return nil, fmt.Errorf("extract: empty message")
	}
	_, cls := obs.Stage(ctx, spanClassify, ieClassify)
	mtype, p := s.ClassifyType(msg)
	cls.SetAttr("type", string(mtype))
	cls.End(nil)
	out := &Extraction{Message: msg, Type: mtype, TypeP: p}
	tokens := text.Tokenize(msg)
	_, nerStage := obs.Stage(ctx, spanNER, ieNER)
	out.Entities = s.ner.ExtractInformalTokens(tokens)
	out.Relations = ner.ParseRelations(tokens)
	nerStage.SetInt("entities", len(out.Entities))
	nerStage.End(nil)
	out.Domain = s.detectDomain(msg, out.Entities)
	out.Keywords = s.keywords(msg, out.Entities)
	if mtype == TypeRequest {
		return out, nil
	}
	domain, ok := s.kb.Domain(out.Domain)
	if !ok {
		return out, nil // no template for undetected domains
	}
	tpls, err := s.fillTemplates(ctx, domain, msg, source, now, out)
	if err != nil {
		return nil, err
	}
	out.Templates = tpls
	return out, nil
}

// detectDomain picks the domain whose anchor concepts the message evokes,
// scoring by cue count. Facility entities strongly indicate tourism.
func (s *Service) detectDomain(msg string, entities []ner.Entity) string {
	scores := map[string]int{}
	words := text.Words(text.Tokenize(text.Normalize(msg)))
	for _, d := range s.kb.Domains() {
		for _, w := range words {
			c, ok := s.ont.ConceptOf(w)
			if !ok {
				continue
			}
			for _, anchor := range d.AnchorConcepts {
				if s.ont.IsA(c, anchor) {
					scores[d.Name]++
				}
			}
		}
	}
	for _, e := range entities {
		if e.Type == ner.TypeFacility && (e.Concept == "hotel" || e.Concept == "hostel" || e.Concept == "restaurant" || e.Concept == "bar") {
			scores["tourism"] += 2
		}
	}
	best, bestScore := "", 0
	for _, d := range s.kb.Domains() {
		if sc := scores[d.Name]; sc > bestScore {
			best, bestScore = d.Name, sc
		}
	}
	return best
}

// keywords extracts the request keywords: content words plus entity names.
func (s *Service) keywords(msg string, entities []ner.Entity) []string {
	seen := map[string]bool{}
	var out []string
	add := func(w string) {
		if w != "" && !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	for _, e := range entities {
		add(e.Norm)
	}
	for _, w := range text.ContentWords(text.Words(text.Tokenize(text.Normalize(msg)))) {
		add(w)
	}
	return out
}

// fillTemplates builds one template per anchor entity (facility for
// tourism) or one per message for event-style domains.
func (s *Service) fillTemplates(ctx context.Context, domain kb.Domain, msg, source string, now time.Time, ex *Extraction) ([]Template, error) {
	switch domain.Name {
	case "tourism":
		return s.fillTourism(ctx, domain, msg, source, now, ex)
	default:
		tpl, ok, err := s.fillEvent(ctx, domain, msg, source, now, ex)
		if err != nil || !ok {
			return nil, err
		}
		return []Template{tpl}, nil
	}
}

func (s *Service) fillTourism(ctx context.Context, domain kb.Domain, msg, source string, now time.Time, ex *Extraction) ([]Template, error) {
	att := sentiment.Analyze(msg)
	var out []Template
	for _, e := range ex.Entities {
		if e.Type != ner.TypeFacility {
			continue
		}
		tpl := Template{
			Domain:    domain.Name,
			RecordTag: domain.RecordTag,
			Fields:    make(map[string]FieldValue),
			Source:    source,
			Extracted: now,
		}
		nameCF := uncertain.Attenuate(e.Confidence, float64(uncertain.ToProbability(s.kb.RuleCF("facility-cue"))))
		tpl.Fields["Hotel_Name"] = FieldValue{Kind: kb.FieldText, Text: e.Text, CF: nameCF}

		loc := s.locationFor(e, ex)
		cf := nameCF
		if loc != nil {
			res, err := s.resolveLocation(ctx, loc, ex)
			if err != nil {
				return nil, err
			}
			tpl.Fields["Location"] = FieldValue{Kind: kb.FieldLocation, Text: loc.Text, CF: loc.Confidence}
			tpl.LocationName = loc.Text
			if best, ok := res.Best(); ok {
				p := best.Entry.Location
				tpl.Location = &p
				tpl.Fields["Country"] = FieldValue{Kind: kb.FieldDist, Dist: res.Country, CF: uncertain.FromProbability(best.P)}
				// Canonical city name ("berlin" written lowercase still
				// yields City=Berlin) — the field the paper's QA query
				// filters on.
				tpl.Fields["City"] = FieldValue{Kind: kb.FieldText, Text: best.Entry.Name, CF: loc.Confidence}
			}
			cf = uncertain.Combine(cf, uncertain.Attenuate(loc.Confidence, 0.8))
		}
		if att.Hits > 0 {
			tpl.Fields["User_Attitude"] = FieldValue{
				Kind: kb.FieldAttitude,
				Dist: att.Attitude,
				CF:   uncertain.FromProbability(topP(att.Attitude)),
			}
		}
		if price, ok := extractPrice(msg); ok {
			tpl.Fields["Price"] = FieldValue{Kind: kb.FieldNumber, Num: price, CF: 0.6}
		}
		tpl.Certainty = uncertain.Attenuate(cf, s.kb.Trust().Reliability(source))
		out = append(out, tpl)
	}
	return out, nil
}

// fillEvent builds the single-template extraction for traffic and farming
// messages.
func (s *Service) fillEvent(ctx context.Context, domain kb.Domain, msg, source string, now time.Time, ex *Extraction) (Template, bool, error) {
	tpl := Template{
		Domain:    domain.Name,
		RecordTag: domain.RecordTag,
		Fields:    make(map[string]FieldValue),
		Source:    source,
		Extracted: now,
	}
	// The "when" of W4: a temporal expression in the message ("flooded
	// this morning", "accident 2 hours ago") dates the observation itself,
	// not its arrival — newest-wins integration compares observation
	// times, so a late-arriving stale report cannot clobber fresh state.
	if tr, ok := text.ParseTemporal(msg, now); ok && !tr.Instant().After(now) {
		tpl.Extracted = tr.Instant()
	}
	// Place/Region: the first location entity, else a relation object.
	var locEnt *ner.Entity
	for i := range ex.Entities {
		if ex.Entities[i].Type == ner.TypeLocation {
			locEnt = &ex.Entities[i]
			break
		}
	}
	keyName := domain.KeyField
	placeText := ""
	var placeCF uncertain.CF = 0.3
	switch {
	case locEnt != nil:
		placeText = locEnt.Text
		placeCF = locEnt.Confidence
	case len(ex.Relations) > 0 && ex.Relations[0].Object != "":
		placeText = ex.Relations[0].Object
	default:
		// Fall back to a facility mention ("market", "station" …).
		for _, e := range ex.Entities {
			if e.Type == ner.TypeFacility {
				placeText = e.Text
				placeCF = e.Confidence
				break
			}
		}
	}
	if placeText == "" {
		return Template{}, false, nil // required key missing: no template
	}
	tpl.Fields[keyName] = FieldValue{Kind: kb.FieldText, Text: placeText, CF: placeCF}

	if locEnt != nil {
		res, err := s.resolveLocation(ctx, locEnt, ex)
		if err != nil {
			return Template{}, false, err
		}
		if best, ok := res.Best(); ok {
			p := best.Entry.Location
			tpl.Location = &p
			tpl.LocationName = locEnt.Text
		}
	}

	// Topic/Condition distribution from ontology concepts in the message.
	dist := uncertain.NewDist()
	words := text.Words(text.Tokenize(text.Normalize(msg)))
	for _, w := range words {
		if c, ok := s.ont.ConceptOf(w); ok {
			for _, anchor := range domain.AnchorConcepts {
				if s.ont.IsA(c, anchor) {
					_ = dist.Add(c, 1)
				}
			}
		}
	}
	if dist.Len() == 0 {
		return Template{}, false, nil
	}
	distField := "Topic"
	if domain.Name == "traffic" {
		distField = "Condition"
	}
	tpl.Fields[distField] = FieldValue{
		Kind: kb.FieldDist,
		Dist: dist,
		CF:   uncertain.FromProbability(topP(dist)),
	}
	if domain.Name == "farming" {
		tpl.Fields["Observation"] = FieldValue{Kind: kb.FieldText, Text: text.Normalize(msg), CF: 0.5}
	}
	att := sentiment.Analyze(msg)
	if att.Hits > 0 {
		tpl.Fields["User_Attitude"] = FieldValue{Kind: kb.FieldAttitude, Dist: att.Attitude, CF: uncertain.FromProbability(topP(att.Attitude))}
	}
	tpl.Certainty = uncertain.Attenuate(uncertain.Combine(placeCF, 0.3), s.kb.Trust().Reliability(source))
	return tpl, true, nil
}

// locationFor picks the location entity associated with a facility: a
// nested location, else the nearest location mention in token distance.
func (s *Service) locationFor(fac ner.Entity, ex *Extraction) *ner.Entity {
	var best *ner.Entity
	bestDist := 1 << 30
	for i := range ex.Entities {
		e := &ex.Entities[i]
		if e.Type != ner.TypeLocation {
			continue
		}
		// Nested inside the facility span: immediate winner (the paper's
		// "Berlin hotel" case).
		if e.Start >= fac.Start && e.End <= fac.End {
			return e
		}
		d := tokenDistance(fac, *e)
		if d < bestDist {
			best, bestDist = e, d
		}
	}
	return best
}

func tokenDistance(a, b ner.Entity) int {
	switch {
	case b.Start >= a.End:
		return b.Start - a.End
	case a.Start >= b.End:
		return a.Start - b.End
	default:
		return 0
	}
}

// resolveLocation disambiguates a location entity using the other location
// mentions as coherence context.
func (s *Service) resolveLocation(ctx context.Context, loc *ner.Entity, ex *Extraction) (disambig.Resolution, error) {
	_, st := obs.Stage(ctx, spanDisambiguate, ieDisambiguate)
	defer st.End(nil)
	var co [][]*gazetteer.Entry
	for i := range ex.Entities {
		e := &ex.Entities[i]
		if e.Type != ner.TypeLocation || e == loc || e.Norm == loc.Norm {
			continue
		}
		var cands []*gazetteer.Entry
		for _, id := range e.GazetteerIDs {
			if g, ok := s.gaz.Get(id); ok {
				cands = append(cands, g)
			}
		}
		if len(cands) > 0 {
			co = append(co, cands)
		}
	}
	return s.resolver.ResolveEntries(loc.Norm, loc.GazetteerIDs, disambig.Context{
		CoToponyms:   co,
		PreferCities: true,
	})
}

func topP(d *uncertain.Dist) float64 {
	if top, ok := d.Top(); ok {
		return top.P
	}
	return 0
}

// extractPrice finds a currency amount ("from $154 USD") in the message.
func extractPrice(msg string) (float64, bool) {
	for _, tok := range text.Tokenize(msg) {
		if tok.Kind != text.KindNumber {
			continue
		}
		t := tok.Text
		cur := strings.HasPrefix(t, "$") || strings.HasPrefix(t, "€") || strings.HasPrefix(t, "£")
		if !cur && !strings.HasSuffix(strings.ToLower(t), "usd") && !strings.HasSuffix(strings.ToLower(t), "eur") {
			continue
		}
		num := strings.TrimLeft(t, "$€£")
		num = strings.TrimSuffix(strings.TrimSuffix(strings.ToLower(num), "usd"), "eur")
		var v float64
		if _, err := fmt.Sscanf(strings.ReplaceAll(num, ",", ""), "%f", &v); err == nil && v > 0 {
			return v, true
		}
	}
	return 0, false
}
