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
	"slices"
	"strings"
	"time"

	"repro/internal/classify"
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
	ner      *ner.Extractor
	resolver *disambig.Resolver
	typer    *classify.NaiveBayes
	// reliability reads the learned source trust; extraction never writes it.
	reliability func(source string) float64
	cues        map[string]cue
}

// NewService wires the IE service and trains its message-type classifier
// from the knowledge base's seed corpus. The learned state comes in here:
// source reliability and the disambiguation priors (nil for none).
func NewService(k *kb.KB, g *gazetteer.Gazetteer, o *ontology.Ontology, reliability func(source string) float64, priors *disambig.Priors) (*Service, error) {
	if k == nil || g == nil || o == nil || reliability == nil {
		return nil, fmt.Errorf("extract: nil dependency")
	}
	typer, err := k.TrainTypeClassifier()
	if err != nil {
		return nil, fmt.Errorf("extract: training type classifier: %w", err)
	}
	resolver := disambig.NewResolver(g, o)
	resolver.Priors = priors
	return &Service{
		kb:          k,
		gaz:         g,
		ner:         ner.NewExtractor(g, o),
		resolver:    resolver,
		typer:       typer,
		reliability: reliability,
		cues:        compileCues(k.Domains(), o),
	}, nil
}

// Resolver exposes the geographic disambiguation resolver.
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
	words := text.Words(text.Tokenize(text.Normalize(msg)))
	di, _ := s.detectDomain(words, out.Entities)
	if di >= 0 {
		out.Domain = s.kb.Domains()[di].Name
	}
	out.Keywords = keywords(words, out.Entities)
	if mtype == TypeRequest || di < 0 {
		return out, nil // no template for requests or undetected domains
	}
	fill := s.fillEvent
	if s.kb.Domains()[di].Name == "tourism" {
		fill = s.fillTourism
	}
	tpls, err := fill(ctx, di, msg, words, source, now, out)
	if err != nil {
		return nil, err
	}
	out.Templates = tpls
	return out, nil
}

// detectDomain scores each domain in kb.Domains() order by the anchor
// concepts the message's normalised words evoke; a facility naming a
// tourism anchor concept strongly indicates tourism. best is the top
// index, the first by name among equal scores, or -1 if nothing scored.
func (s *Service) detectDomain(words []string, entities []ner.Entity) (best int, scores []int) {
	scores = make([]int, len(s.kb.Domains()))
	for _, w := range words {
		if c, ok := s.cues[w]; ok {
			for i, n := range c.hits {
				scores[i] += n
			}
		}
	}
	for i, d := range s.kb.Domains() {
		for _, e := range entities {
			if d.Name == "tourism" && e.Type == ner.TypeFacility && slices.Contains(d.AnchorConcepts, e.Concept) {
				scores[i] += 2
			}
		}
	}
	best = -1
	for i, sc := range scores {
		if sc > 0 && (best < 0 || sc > scores[best]) {
			best = i
		}
	}
	return best, scores
}

// cue is a lexicon word's compiled domain rule: the concept it evokes
// and, per domain in kb.Domains() order, how many of that domain's anchor
// concepts the concept is a kind of.
type cue struct {
	concept string
	hits    []int
}

// compileCues builds the word → domain rule once, at construction.
func compileCues(domains []kb.Domain, o *ontology.Ontology) map[string]cue {
	cues := make(map[string]cue)
	o.EachLexeme(func(word, concept string) {
		c := cue{concept: concept, hits: make([]int, len(domains))}
		for i, d := range domains {
			for _, anchor := range d.AnchorConcepts {
				if o.IsA(concept, anchor) {
					c.hits[i]++
				}
			}
		}
		cues[word] = c
	})
	return cues
}

// keywords extracts the request keywords: entity names, then the
// message's content words.
func keywords(words []string, entities []ner.Entity) []string {
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
	for _, w := range text.ContentWords(words) {
		add(w)
	}
	return out
}

// fillTourism builds one template per facility mention.
func (s *Service) fillTourism(ctx context.Context, di int, msg string, _ []string, source string, now time.Time, ex *Extraction) ([]Template, error) {
	att := sentiment.Analyze(msg)
	var out []Template
	for _, e := range ex.Entities {
		if e.Type != ner.TypeFacility {
			continue
		}
		tpl := s.newTemplate(di, source, now)
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
			tpl.Fields["User_Attitude"] = FieldValue{Kind: kb.FieldAttitude, Dist: att.Attitude, CF: uncertain.FromProbability(topP(att.Attitude))}
		}
		if price, ok := extractPrice(msg); ok {
			tpl.Fields["Price"] = FieldValue{Kind: kb.FieldNumber, Num: price, CF: 0.6}
		}
		tpl.Certainty = uncertain.Attenuate(cf, s.reliability(source))
		out = append(out, tpl)
	}
	return out, nil
}

// fillEvent builds the single-template extraction for traffic and farming
// messages; di is the domain's index in kb.Domains().
func (s *Service) fillEvent(ctx context.Context, di int, msg string, words []string, source string, now time.Time, ex *Extraction) ([]Template, error) {
	domain := s.kb.Domains()[di]
	tpl := s.newTemplate(di, source, now)
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
		return nil, nil // required key missing: no template
	}
	tpl.Fields[keyName] = FieldValue{Kind: kb.FieldText, Text: placeText, CF: placeCF}

	if locEnt != nil {
		res, err := s.resolveLocation(ctx, locEnt, ex)
		if err != nil {
			return nil, err
		}
		if best, ok := res.Best(); ok {
			p := best.Entry.Location
			tpl.Location = &p
		}
	}

	dist := s.conceptDist(di, words)
	if dist.Len() == 0 {
		return nil, nil
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
	tpl.Certainty = uncertain.Attenuate(uncertain.Combine(placeCF, 0.3), s.reliability(source))
	return []Template{tpl}, nil
}

// newTemplate starts an empty template of domain di from source.
func (s *Service) newTemplate(di int, source string, now time.Time) Template {
	d := s.kb.Domains()[di]
	return Template{Domain: d.Name, RecordTag: d.RecordTag, Fields: make(map[string]FieldValue), Source: source, Extracted: now}
}

// conceptDist is an event's Topic/Condition distribution: each word's
// concept, weighted by its anchor hits in domain di.
func (s *Service) conceptDist(di int, words []string) *uncertain.Dist {
	dist := uncertain.NewDist()
	for _, w := range words {
		if c, ok := s.cues[w]; ok && c.hits[di] > 0 {
			_ = dist.Add(c.concept, float64(c.hits[di]))
		}
	}
	return dist
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
