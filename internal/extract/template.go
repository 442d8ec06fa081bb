package extract

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"repro/internal/kb"
	"repro/internal/pxml"
	"repro/internal/uncertain"
)

// ToDoc renders a filled template as a probabilistic XML record ready for
// the XMLDB: plain fields become certain elements, distribution fields
// become mux nodes — exactly the representation of the paper's worked
// templates ("Country: P(Germany) > P(USA) > …").
func (t Template) ToDoc() (*pxml.Node, error) {
	if t.RecordTag == "" {
		return nil, fmt.Errorf("extract: template has no record tag")
	}
	root := pxml.Elem(t.RecordTag)
	for _, name := range t.fieldOrder() {
		fv := t.Fields[name]
		switch fv.Kind {
		case kb.FieldText, kb.FieldLocation:
			root.Add(pxml.ElemText(name, fv.Text))
		case kb.FieldNumber:
			root.Add(pxml.ElemText(name, strconv.FormatFloat(fv.Num, 'g', -1, 64)))
		case kb.FieldDist, kb.FieldAttitude:
			mux, err := DistToMux(fv.Dist)
			if err != nil {
				return nil, fmt.Errorf("extract: field %s: %w", name, err)
			}
			root.Add(pxml.Elem(name, mux))
		default:
			return nil, fmt.Errorf("extract: field %s has unknown kind %d", name, fv.Kind)
		}
	}
	if t.Location != nil {
		root.Add(pxml.Elem("Geo",
			pxml.ElemText("Lat", strconv.FormatFloat(t.Location.Lat, 'f', 5, 64)),
			pxml.ElemText("Lon", strconv.FormatFloat(t.Location.Lon, 'f', 5, 64)),
		))
	}
	if err := root.Validate(); err != nil {
		return nil, fmt.Errorf("extract: built invalid record: %w", err)
	}
	return root, nil
}

// fieldOrder returns field names in the domain-schema order when possible
// (Fields is a map; deterministic output matters for serialisation and
// tests). Unknown fields sort last alphabetically.
func (t Template) fieldOrder() []string {
	known := []string{"Hotel_Name", "Place", "Region", "Location", "City",
		"Country", "Condition", "Topic", "Observation", "User_Attitude", "Price"}
	var out, rest []string
	for _, n := range known {
		if _, ok := t.Fields[n]; ok {
			out = append(out, n)
		}
	}
	for n := range t.Fields {
		if !slices.Contains(known, n) {
			rest = append(rest, n)
		}
	}
	sort.Strings(rest)
	return append(out, rest...)
}

// DistToMux converts a normalised distribution into a mux node over text
// alternatives.
func DistToMux(d *uncertain.Dist) (*pxml.Node, error) {
	if d == nil || d.Len() == 0 {
		return nil, fmt.Errorf("empty distribution")
	}
	mux := pxml.Mux()
	for _, alt := range d.Normalized() {
		if alt.P <= 0 {
			continue
		}
		mux.Add(pxml.Text(alt.Name).WithProb(alt.P))
	}
	if len(mux.Children) == 0 {
		return nil, fmt.Errorf("distribution has no positive-probability alternatives")
	}
	return mux, nil
}

// MuxToDist is the inverse of DistToMux, reading a field's distribution
// back out of a stored record.
func MuxToDist(field *pxml.Node) *uncertain.Dist {
	d := uncertain.NewDist()
	for _, c := range field.Children {
		if c.Kind == pxml.KindMux || c.Kind == pxml.KindInd {
			for _, gc := range c.Children {
				if gc.Kind == pxml.KindText {
					_ = d.Add(gc.Text, gc.Prob)
				}
			}
		}
		if c.Kind == pxml.KindText {
			_ = d.Add(c.Text, 1)
		}
	}
	return d
}
