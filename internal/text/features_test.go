package text

import (
	"reflect"
	"testing"
)

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
