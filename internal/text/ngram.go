package text

import "strings"

// Span is a half-open token index range [Start, End) with its joined text.
type Span struct {
	Start, End int
	Text       string
}

// TokenNGramSpans returns spans over a token slice for n in [minN, maxN],
// using the tokens' lowercased surface forms joined with single spaces.
// Only word-like tokens participate; a span never crosses punctuation,
// which keeps entity candidates within phrase boundaries.
func TokenNGramSpans(tokens []Token, minN, maxN int) []Span {
	if minN < 1 {
		minN = 1
	}
	var out []Span
	// Identify maximal runs of word-like tokens.
	i := 0
	for i < len(tokens) {
		if !isEntityRune(tokens[i]) {
			i++
			continue
		}
		j := i
		for j < len(tokens) && isEntityRune(tokens[j]) {
			j++
		}
		// Emit n-grams within the run [i, j).
		for n := minN; n <= maxN; n++ {
			for k := i; k+n <= j; k++ {
				parts := make([]string, n)
				for m := 0; m < n; m++ {
					parts[m] = tokens[k+m].Lower
				}
				out = append(out, Span{Start: k, End: k + n, Text: strings.Join(parts, " ")})
			}
		}
		i = j
	}
	return out
}

func isEntityRune(t Token) bool {
	return t.Kind == KindWord || t.Kind == KindNumber || t.Kind == KindHashtag
}
