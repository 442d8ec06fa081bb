package text

import "testing"

func TestTokenNGramSpans(t *testing.T) {
	toks := Tokenize("loved Axel Hotel in Berlin, great stay")
	spans := TokenNGramSpans(toks, 2, 3)
	found := map[string]bool{}
	for _, s := range spans {
		found[s.Text] = true
	}
	if !found["axel hotel"] {
		t.Errorf("missing 'axel hotel' in %v", spans)
	}
	if !found["axel hotel in"] {
		t.Errorf("missing trigram in %v", spans)
	}
	// Spans must not cross the comma.
	if found["berlin great"] || found["berlin , great"] {
		t.Error("span crossed punctuation boundary")
	}
}

func TestTokenNGramSpanOffsets(t *testing.T) {
	toks := Tokenize("the Axel Hotel rocks")
	for _, s := range TokenNGramSpans(toks, 1, 4) {
		if s.Start < 0 || s.End > len(toks) || s.Start >= s.End {
			t.Fatalf("bad span %+v", s)
		}
	}
}
