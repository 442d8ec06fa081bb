// Package ner extracts named entities from short informal messages. It
// implements two recognisers:
//
//   - ExtractInformal: the paper's proposed approach for ill-behaved text,
//     combining gazetteer evidence, ontology cue words, prepositional
//     context and orthographic features, each contributing certainty
//     (RQ2b: "What features can be used for Named Entities extraction in
//     informal short text?").
//   - ExtractTraditional: the classic capitalisation/POS-driven baseline,
//     included so experiment E5 can measure exactly the degradation on
//     informal text the paper predicts (RQ1, RQ2a).
//
// It also parses the vague spatial relation phrases of RQ2d ("north of",
// "in vicinity of", "5 km of") in relations.go.
package ner

import (
	"sort"
	"strings"
	"unicode/utf8"

	"repro/internal/gazetteer"
	"repro/internal/ontology"
	"repro/internal/text"
	"repro/internal/uncertain"
)

// Type is the kind of entity recognised.
type Type string

// Entity types.
const (
	TypeLocation Type = "location" // toponym resolvable in the gazetteer
	TypeFacility Type = "facility" // hotel, restaurant, station, market …
	TypePerson   Type = "person"   // unresolved capitalised name
)

// Entity is one recognised mention.
type Entity struct {
	Text       string       // surface form as written
	Norm       string       // normalised form
	Type       Type         //
	Start, End int          // token index range [Start, End)
	Confidence uncertain.CF // extraction certainty (RQ2: each result carries its uncertainty)
	// GazetteerIDs lists candidate references when the gazetteer knows the
	// name; disambiguation turns these into a probability distribution.
	GazetteerIDs []int64
	// Concept is the ontology concept for facilities ("hotel",
	// "restaurant"), empty otherwise.
	Concept string
}

// Extractor bundles the resources both recognisers consult.
type Extractor struct {
	Gaz *gazetteer.Gazetteer
	Ont *ontology.Ontology
	// FuzzyDistance is the misspelling tolerance for gazetteer lookup
	// (default 1).
	FuzzyDistance int
}

// NewExtractor returns an extractor over the given gazetteer and ontology.
func NewExtractor(g *gazetteer.Gazetteer, o *ontology.Ontology) *Extractor {
	return &Extractor{Gaz: g, Ont: o, FuzzyDistance: 1}
}

// prepositionCues are words whose following span is likely a place.
var prepositionCues = map[string]bool{
	"in": true, "at": true, "near": true, "to": true, "from": true,
	"into": true, "around": true, "towards": true, "via": true,
}

// candidate is an internal scored span.
type candidate struct {
	span    text.Span
	typ     Type
	cf      uncertain.CF
	gazIDs  []int64
	concept string
}

// ExtractInformal recognises entities in ill-behaved text. It works on
// lowercase, abbreviated, hashtag-ridden input by leaning on gazetteer and
// ontology evidence rather than capitalisation.
func (x *Extractor) ExtractInformal(msg string) []Entity {
	tokens := text.Tokenize(msg)
	return x.ExtractInformalTokens(tokens)
}

// ExtractInformalTokens is ExtractInformal over pre-tokenised input.
func (x *Extractor) ExtractInformalTokens(tokens []text.Token) []Entity {
	var cands []candidate

	// Facility candidates first: spans containing an ontology cue word
	// ("axel hotel", "#movenpick hotel", "fox sports grill").
	cands = append(cands, x.facilityCandidates(tokens)...)

	// Toponym candidates: n-gram spans with gazetteer evidence.
	spans := text.TokenNGramSpans(tokens, 1, 4)
	for _, sp := range spans {
		if spanAllStopwords(tokens, sp) {
			continue
		}
		c, ok := x.toponymCandidate(tokens, sp)
		if ok {
			cands = append(cands, c)
		}
	}

	resolved := resolveOverlaps(cands)
	return toEntities(tokens, resolved)
}

// facilityCandidates finds spans naming facilities via ontology cue words.
// A cue word ("hotel", "grill", "market") anchors the span; adjacent
// non-stopword tokens extend the name leftwards ("Fox Sports Grill") or,
// for "hotel X" patterns, rightwards.
func (x *Extractor) facilityCandidates(tokens []text.Token) []candidate {
	var out []candidate
	for i, tok := range tokens {
		if !isWordish(tok) {
			continue
		}
		w := strings.TrimPrefix(tok.Lower, "#")
		concept, ok := x.Ont.ConceptOf(w)
		if !ok || !x.Ont.IsA(concept, "place") {
			continue
		}
		// Extend left over name-like tokens (at most 3): capitalised words
		// and hashtags always qualify; lowercase words qualify only while
		// the span has no capitalised part yet (the all-lowercase SMS
		// case) and only if they are noun-like — adjectives such as
		// "nice" in "nice hotels" must not join the name.
		start := i
		sawUpper := false
		for start > 0 && i-start < 3 {
			prev := tokens[start-1]
			if !isWordish(prev) {
				break
			}
			pw := strings.TrimPrefix(prev.Lower, "#")
			if text.IsStopword(pw) {
				break
			}
			if _, isCue := x.Ont.ConceptOf(pw); isCue {
				break
			}
			upper := startsUpper(prev.Text) || prev.Kind == text.KindHashtag
			if !upper {
				if sawUpper {
					break
				}
				if tag := text.TagWord(prev, false); tag != text.TagNoun && tag != text.TagProperNoun {
					break
				}
			} else {
				sawUpper = true
			}
			start--
		}
		if start == i {
			// Try extending right instead ("hotel Lola").
			end := i + 1
			for end < len(tokens) && end-i <= 2 {
				next := tokens[end]
				if !isWordish(next) || text.IsStopword(next.Lower) {
					break
				}
				if _, isCue := x.Ont.ConceptOf(next.Lower); isCue {
					break
				}
				// Only extend rightwards over capitalised or hashtag
				// tokens; bare lowercase nouns after the cue are usually
				// not part of a name ("hotel room").
				if !startsUpper(next.Text) && next.Kind != text.KindHashtag {
					break
				}
				end++
			}
			if end == i+1 {
				continue // bare cue word, not a name
			}
			out = append(out, candidate{
				span:    spanOf(tokens, i, end),
				typ:     TypeFacility,
				cf:      facilityConfidence(tokens, i, end),
				concept: concept,
			})
			continue
		}
		end := i + 1
		out = append(out, candidate{
			span:    spanOf(tokens, start, end),
			typ:     TypeFacility,
			cf:      facilityConfidence(tokens, start, end),
			concept: concept,
		})
	}
	return out
}

// facilityConfidence scores a facility span: cue word is strong evidence,
// capitalised or hashtag name parts add more.
func facilityConfidence(tokens []text.Token, start, end int) uncertain.CF {
	cf := uncertain.CF(0.55) // cue word baseline
	for i := start; i < end; i++ {
		if startsUpper(tokens[i].Text) {
			cf = uncertain.Combine(cf, 0.2)
		}
		if tokens[i].Kind == text.KindHashtag {
			cf = uncertain.Combine(cf, 0.25)
		}
	}
	return cf
}

// toponymCandidate scores a span as a location mention.
func (x *Extractor) toponymCandidate(tokens []text.Token, sp text.Span) (candidate, bool) {
	var ids []int64
	var cf uncertain.CF

	// Gazetteer evidence (exact first, then fuzzy).
	if refs := x.Gaz.Lookup(sp.Text); len(refs) > 0 {
		for _, r := range refs {
			ids = append(ids, r.ID)
		}
		cf = 0.6
	} else if x.FuzzyDistance > 0 && utf8.RuneCountInString(sp.Text) >= 5 {
		ms := x.Gaz.LookupFuzzy(sp.Text, x.FuzzyDistance)
		if len(ms) > 0 {
			for _, r := range ms[0].Entries {
				ids = append(ids, r.ID)
			}
			cf = 0.35 // fuzzy hits are weaker evidence
		}
	}
	if len(ids) == 0 {
		return candidate{}, false
	}

	// Context evidence: preceding preposition.
	if sp.Start > 0 {
		prev := tokens[sp.Start-1]
		if prepositionCues[prev.Lower] {
			cf = uncertain.Combine(cf, 0.25)
		}
	}
	// Orthographic evidence: capitalisation mid-sentence (weak in informal
	// text but still worth something).
	for i := sp.Start; i < sp.End; i++ {
		if startsUpper(tokens[i].Text) && i > 0 {
			cf = uncertain.Combine(cf, 0.1)
			break
		}
	}
	// Penalise single very common words with huge ambiguity but no
	// context: they are usually false positives ("spring", "hill").
	if sp.End-sp.Start == 1 && len(ids) > 50 {
		hasCtx := sp.Start > 0 && prepositionCues[tokens[sp.Start-1].Lower]
		if !hasCtx && !startsUpper(tokens[sp.Start].Text) {
			return candidate{}, false
		}
	}
	return candidate{span: sp, typ: TypeLocation, cf: cf, gazIDs: ids}, true
}

// resolveOverlaps keeps the best-scoring non-overlapping candidates,
// preferring higher confidence, then longer spans. A location fully inside
// a facility span survives as a nested mention (the paper's Template 3
// extracts both "Berlin hotel" and "Berlin").
func resolveOverlaps(cands []candidate) []candidate {
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].cf != cands[j].cf {
			return cands[i].cf > cands[j].cf
		}
		li, lj := cands[i].span.End-cands[i].span.Start, cands[j].span.End-cands[j].span.Start
		if li != lj {
			return li > lj
		}
		return cands[i].span.Start < cands[j].span.Start
	})
	var kept []candidate
	for _, c := range cands {
		conflict := false
		for _, k := range kept {
			if !spansOverlap(c.span, k.span) {
				continue
			}
			// Allow a location nested inside a kept facility.
			if c.typ == TypeLocation && k.typ == TypeFacility && spanInside(c.span, k.span) {
				continue
			}
			if k.typ == TypeLocation && c.typ == TypeFacility && spanInside(k.span, c.span) {
				continue
			}
			conflict = true
			break
		}
		if !conflict {
			kept = append(kept, c)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].span.Start < kept[j].span.Start })
	return kept
}

func toEntities(tokens []text.Token, cands []candidate) []Entity {
	out := make([]Entity, 0, len(cands))
	for _, c := range cands {
		surface := surfaceText(tokens, c.span.Start, c.span.End)
		out = append(out, Entity{
			Text:         surface,
			Norm:         text.NormalizeName(surface),
			Type:         c.typ,
			Start:        c.span.Start,
			End:          c.span.End,
			Confidence:   c.cf,
			GazetteerIDs: c.gazIDs,
			Concept:      c.concept,
		})
	}
	return out
}

func surfaceText(tokens []text.Token, start, end int) string {
	parts := make([]string, 0, end-start)
	for i := start; i < end; i++ {
		parts = append(parts, strings.TrimPrefix(tokens[i].Text, "#"))
	}
	return strings.Join(parts, " ")
}

func spanOf(tokens []text.Token, start, end int) text.Span {
	parts := make([]string, 0, end-start)
	for i := start; i < end; i++ {
		parts = append(parts, strings.TrimPrefix(tokens[i].Lower, "#"))
	}
	return text.Span{Start: start, End: end, Text: strings.Join(parts, " ")}
}

func spansOverlap(a, b text.Span) bool {
	return a.Start < b.End && b.Start < a.End
}

func spanInside(inner, outer text.Span) bool {
	return inner.Start >= outer.Start && inner.End <= outer.End
}

func spanAllStopwords(tokens []text.Token, sp text.Span) bool {
	for i := sp.Start; i < sp.End; i++ {
		if !text.IsStopword(strings.TrimPrefix(tokens[i].Lower, "#")) {
			return false
		}
	}
	return true
}

func isWordish(t text.Token) bool {
	return t.Kind == text.KindWord || t.Kind == text.KindHashtag
}

func startsUpper(s string) bool {
	for _, r := range s {
		return r >= 'A' && r <= 'Z'
	}
	return false
}
