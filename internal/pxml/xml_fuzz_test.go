package pxml

import (
	"math"
	"testing"
)

// FuzzUnmarshal throws arbitrary documents at the probabilistic-XML
// parser. The invariants:
//
//  1. Unmarshal never panics, whatever the input;
//  2. any tree Unmarshal accepts that also passes Validate must
//     survive a Marshal → Unmarshal → Marshal round trip with the two
//     marshalled forms byte-identical — Marshal's output is a fixpoint,
//     which is what lets the store treat serialised documents as
//     canonical.
func FuzzUnmarshal(f *testing.F) {
	seeds := []string{
		"<hotel><name>Axel</name><city>Berlin</city></hotel>",
		`<poi><p:mux><name p="0.6">Eiffel Tower</name><name p="0.4">Tour Eiffel</name></p:mux></poi>`,
		`<poi><p:ind><tag p="0.9">landmark</tag><tag p="0.5">museum</tag></p:ind></poi>`,
		`<r><p:mux><p:text p="0.5">flood</p:text><p:text p="0.5">fire</p:text></p:mux></r>`,
		"<a><b/><c>text</c></a>",
		"<a>",                     // unterminated
		"<a><p:mux></p:mux></a>",  // empty distribution
		`<a p="1.5">bad prob</a>`, // probability out of range
		"plain text, no element",
		`<a><p:mux><b p="abc">x</b></p:mux></a>`, // unparseable probability
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		n, err := Unmarshal(s)
		if err != nil {
			return
		}
		if err := n.Validate(); err != nil {
			return
		}
		first, err := Marshal(n)
		if err != nil {
			t.Fatalf("Marshal of accepted valid tree failed: %v", err)
		}
		back, err := Unmarshal(first)
		if err != nil {
			t.Fatalf("Unmarshal of own Marshal output failed: %v\ndoc: %s", err, first)
		}
		second, err := Marshal(back)
		if err != nil {
			t.Fatalf("re-Marshal failed: %v\ndoc: %s", err, first)
		}
		if first != second {
			t.Fatalf("Marshal is not a fixpoint:\nfirst:  %s\nsecond: %s", first, second)
		}
	})
}

// FuzzFieldValueProb: on any document Unmarshal accepts, FieldValueProb
// returns bit for bit what ValueProb returns for the joined path — the
// query store scores records with the former in place of the latter.
func FuzzFieldValueProb(f *testing.F) {
	seeds := []struct{ doc, field, value string }{
		{"<Hotel><City>Berlin</City></Hotel>", "City", "Berlin"},
		{`<Hotel><City><p:mux><p:text p="0.6">Berlin</p:text><p:text p="0.3">Paris</p:text></p:mux></City></Hotel>`, "City", "Paris"},
		{`<Hotel><p:ind><City p="0.5">A</City></p:ind><City>B</City></Hotel>`, "City", "A"},
		{`<Hotel><p:mux><City p="0.4">A</City><City p="0.5"><p:ind><p:text p="0.9">A</p:text></p:ind></City></p:mux></Hotel>`, "City", "A"},
		{"<Hotel><City>A</City></Hotel>", "", "A"},
		{"<Hotel><City>A</City></Hotel>", "City", ""},
		{"<Hotel><City>A</City></Hotel>", "City/", "A"},
		{"<Hotel><City><Inner>A</Inner></City></Hotel>", "City/Inner", "A"},
	}
	for _, s := range seeds {
		f.Add(s.doc, s.field, s.value)
	}
	f.Fuzz(func(t *testing.T, doc, field, value string) {
		n, err := Unmarshal(doc)
		if err != nil {
			return
		}
		got, want := FieldValueProb(n, field, value), ValueProb(n, n.Tag+"/"+field, value)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("FieldValueProb(%q, %q) = %v, ValueProb gives %v\ndoc: %s", field, value, got, want, doc)
		}
	})
}
