package extract

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/gazetteer"
	"repro/internal/kb"
	"repro/internal/ner"
	"repro/internal/ontology"
	"repro/internal/text"
	"repro/internal/tweetgen"
	"repro/internal/uncertain"
)

// The oracles below keep the walk the compiled cue table replaced: for
// every domain and word, ask the ontology for the word's concept and test
// it against each anchor with IsA. The table must reproduce it exactly —
// scores, the winning domain, and the Topic/Condition distribution with
// its insertion order and masses — so every stored byte stays the same.

// oracleScores is the walk behind domain detection, keyed by domain name.
func oracleScores(k *kb.KB, o *ontology.Ontology, words []string, entities []ner.Entity) map[string]int {
	scores := map[string]int{}
	for _, d := range k.Domains() {
		for _, w := range words {
			c, ok := o.ConceptOf(w)
			if !ok {
				continue
			}
			for _, anchor := range d.AnchorConcepts {
				if o.IsA(c, anchor) {
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
	return scores
}

// oracleDomain picks the best-scoring domain, the first by name on ties.
func oracleDomain(k *kb.KB, scores map[string]int) string {
	best, bestScore := "", 0
	for _, d := range k.Domains() {
		if sc := scores[d.Name]; sc > bestScore {
			best, bestScore = d.Name, sc
		}
	}
	return best
}

// oracleDist is the walk behind an event's Topic/Condition distribution.
func oracleDist(o *ontology.Ontology, domain kb.Domain, words []string) *uncertain.Dist {
	dist := uncertain.NewDist()
	for _, w := range words {
		if c, ok := o.ConceptOf(w); ok {
			for _, anchor := range domain.AnchorConcepts {
				if o.IsA(c, anchor) {
					_ = dist.Add(c, 1)
				}
			}
		}
	}
	return dist
}

// oracleFallback is the keyword → domain rule the QA service applied when
// extraction detected no domain, before it read extraction's domain only.
func oracleFallback(o *ontology.Ontology, keywords []string) string {
	for _, w := range keywords {
		if c, ok := o.ConceptOf(w); ok {
			switch {
			case o.IsA(c, "lodging") || o.IsA(c, "food"):
				return "tourism"
			case o.IsA(c, "transport"):
				return "traffic"
			case o.IsA(c, "agriculture"):
				return "farming"
			}
		}
	}
	return ""
}

func cueService(t *testing.T) (*Service, *kb.KB, *ontology.Ontology) {
	t.Helper()
	g, err := gazetteer.Synthesize(gazetteer.Config{Names: 300, Seed: 2011})
	if err != nil {
		t.Fatal(err)
	}
	o := ontology.New()
	o.LoadContainment(g)
	k := kb.New()
	s, err := NewService(k, g, o, newTrust(t).Reliability, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s, k, o
}

// checkAgainstOracle compares the table's scores, domain and every
// domain's concept distribution with the oracle walk for one word list.
func checkAgainstOracle(t *testing.T, s *Service, k *kb.KB, o *ontology.Ontology, label string, words []string, entities []ner.Entity) {
	t.Helper()
	want := oracleScores(k, o, words, entities)
	di, got := s.detectDomain(words, entities)
	for i, d := range k.Domains() {
		if got[i] != want[d.Name] {
			t.Errorf("%s: score[%s] = %d, oracle %d", label, d.Name, got[i], want[d.Name])
		}
		wantDist, gotDist := oracleDist(o, d, words), s.conceptDist(i, words)
		if w, g := distBits(wantDist), distBits(gotDist); w != g {
			t.Errorf("%s: %s distribution = %s, oracle %s", label, d.Name, g, w)
		}
	}
	wantDomain, gotDomain := oracleDomain(k, want), ""
	if di >= 0 {
		gotDomain = k.Domains()[di].Name
	}
	if gotDomain != wantDomain {
		t.Errorf("%s: domain = %q, oracle %q", label, gotDomain, wantDomain)
	}
}

// distBits renders a distribution's alternatives in insertion order, with
// their probabilities' exact bits, and its normalised order.
func distBits(d *uncertain.Dist) string {
	var out string
	for _, a := range d.Normalized() {
		out += fmt.Sprintf("%s=%x ", a.Name, math.Float64bits(a.P))
	}
	return out + fmt.Sprint(d.Len())
}

func lexicon(o *ontology.Ontology) []string {
	var words []string
	o.EachLexeme(func(word, _ string) { words = append(words, word) })
	sort.Strings(words)
	return words
}

func TestCueTableMatchesWalkPerWord(t *testing.T) {
	s, k, o := cueService(t)
	words := lexicon(o)
	if len(words) < 50 {
		t.Fatalf("only %d lexicon words", len(words))
	}
	for _, w := range words {
		checkAgainstOracle(t, s, k, o, w, []string{w}, nil)
	}
	// Insertion order and multiplicity: all words in one message, forwards
	// and backwards, with repeats.
	all := append(append([]string(nil), words...), words...)
	checkAgainstOracle(t, s, k, o, "all words", all, nil)
	for i, j := 0, len(all)-1; i < j; i, j = i+1, j-1 {
		all[i], all[j] = all[j], all[i]
	}
	checkAgainstOracle(t, s, k, o, "all words reversed", all, nil)
}

func TestCueTableMatchesWalkOnTweets(t *testing.T) {
	s, k, o := cueService(t)
	for _, noise := range []float64{0, 0.5, 1} {
		gen, err := tweetgen.New(tweetgen.Config{Seed: 7, Noise: noise, Domain: tweetgen.DomainMixed})
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range gen.Generate(300) {
			words := text.Words(text.Tokenize(text.Normalize(m.Text)))
			ents := s.ner.ExtractInformalTokens(text.Tokenize(m.Text))
			checkAgainstOracle(t, s, k, o, fmt.Sprintf("noise %.1f message %d %q", noise, i, m.Text), words, ents)
		}
	}
}

// TestQAFallbackCannotFire is the evidence for dropping the QA service's
// keyword fallback, the third copy of the word → domain rule. Every
// lexicon word scores a domain on its own, so a question containing one
// always reaches QA with a domain, and where the fallback named a domain
// for a word it named the table's. Over generated questions, no message
// without a domain carried a keyword the fallback would have read.
func TestQAFallbackCannotFire(t *testing.T) {
	s, k, o := cueService(t)
	for _, w := range lexicon(o) {
		di, _ := s.detectDomain([]string{w}, nil)
		if di < 0 {
			t.Errorf("lexicon word %q scores no domain", w)
			continue
		}
		if fb := oracleFallback(o, []string{w}); fb != "" && fb != k.Domains()[di].Name {
			t.Errorf("word %q: fallback picks %s, table %s", w, fb, k.Domains()[di].Name)
		}
	}
	for _, noise := range []float64{0, 0.5, 1} {
		gen, err := tweetgen.New(tweetgen.Config{Seed: 11, Noise: noise, Domain: tweetgen.DomainMixed, RequestRatio: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range gen.Generate(300) {
			words := text.Words(text.Tokenize(text.Normalize(m.Text)))
			ents := s.ner.ExtractInformalTokens(text.Tokenize(m.Text))
			if di, _ := s.detectDomain(words, ents); di >= 0 {
				continue
			}
			if fb := oracleFallback(o, keywords(words, ents)); fb != "" {
				t.Errorf("%q: no domain detected, but the fallback picks %s", m.Text, fb)
			}
		}
	}
}
