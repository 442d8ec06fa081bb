package text

import (
	"reflect"
	"testing"
)

func TestContextFeatures(t *testing.T) {
	toks := Tokenize("stayed at Axel Hotel")
	// Feature of "Axel" (index 2).
	fs := ContextFeatures(toks, 2)
	got := map[string]bool{}
	for _, f := range fs {
		got[f] = true
	}
	if !got["prev:at"] || !got["next:hotel"] {
		t.Errorf("ContextFeatures = %v", fs)
	}
	// Boundaries.
	first := ContextFeatures(toks, 0)
	if !reflect.DeepEqual(first[0], "prev:<s>") {
		t.Errorf("first features = %v", first)
	}
	last := ContextFeatures(toks, len(toks)-1)
	found := false
	for _, f := range last {
		if f == "next:</s>" {
			found = true
		}
	}
	if !found {
		t.Errorf("last features = %v", last)
	}
}

func TestIsStopword(t *testing.T) {
	for _, w := range []string{"the", "The", "and", "IS"} {
		if !IsStopword(w) {
			t.Errorf("IsStopword(%q) = false", w)
		}
	}
	for _, w := range []string{"hotel", "berlin", ""} {
		if IsStopword(w) {
			t.Errorf("IsStopword(%q) = true", w)
		}
	}
}

func TestContentWords(t *testing.T) {
	got := ContentWords([]string{"the", "Good", "hotels", "in", "Berlin", "a", "x"})
	want := []string{"good", "hotels", "berlin"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ContentWords = %v, want %v", got, want)
	}
}
