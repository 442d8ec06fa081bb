package text

import "strings"

// stopwords are high-frequency function words excluded from keyword
// extraction and entity candidates.
var stopwords = map[string]bool{
	"the": true, "a": true, "an": true, "and": true, "or": true, "but": true,
	"in": true, "on": true, "at": true, "of": true, "to": true, "from": true,
	"by": true, "with": true, "is": true, "are": true, "was": true,
	"were": true, "be": true, "been": true, "am": true, "i": true,
	"you": true, "he": true, "she": true, "it": true, "we": true,
	"they": true, "me": true, "my": true, "your": true, "his": true,
	"her": true, "its": true, "our": true, "their": true, "this": true,
	"that": true, "these": true, "those": true, "there": true, "here": true,
	"what": true, "which": true, "who": true, "whom": true, "when": true,
	"where": true, "why": true, "how": true, "all": true, "any": true,
	"both": true, "each": true, "few": true, "more": true, "most": true,
	"other": true, "some": true, "such": true, "only": true, "own": true,
	"same": true, "so": true, "than": true, "too": true, "very": true,
	"can": true, "will": true, "just": true, "do": true, "does": true,
	"did": true, "have": true, "has": true, "had": true, "not": true,
	"no": true, "nor": true, "as": true, "if": true, "then": true,
	"else": true, "for": true, "about": true, "into": true, "over": true,
	"under": true, "again": true, "once": true, "out": true, "up": true,
	"down": true, "also": true,
}

// IsStopword reports whether the lowercased word is a function word.
func IsStopword(w string) bool {
	return stopwords[strings.ToLower(w)]
}

// ContentWords filters a word list down to non-stopword words of length
// at least 2 (after normalisation).
func ContentWords(words []string) []string {
	var out []string
	for _, w := range words {
		lw := strings.ToLower(w)
		if len(lw) >= 2 && !stopwords[lw] {
			out = append(out, lw)
		}
	}
	return out
}
