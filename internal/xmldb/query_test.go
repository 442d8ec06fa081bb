package xmldb

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/geo"
	"repro/internal/pxml"
	"repro/internal/uncertain"
)

// formulatedQueries are the query shapes the QA service emits, byte for
// byte as its pin table fixes them.
var formulatedQueries = []string{
	`topk(3, for $x in //Hotels where $x/City == "Berlin" and $x/User_Attitude == "Positive" orderby score($x) return $x)`,
	`topk(3, for $x in //Hotels where near($x, 48.8500, 2.3500, 20000) and $x/User_Attitude == "Positive" orderby score($x) return $x)`,
	`topk(3, for $x in //Hotels where near($x, -1.2900, 36.8200, 20000) and $x/User_Attitude == "Positive" orderby score($x) return $x)`,
	`topk(3, for $x in //Hotels where near($x, 48.8500, 2.3500, 5000) orderby score($x) return $x)`,
	`topk(3, for $x in //Hotels where $x/User_Attitude == "Positive" orderby score($x) return $x)`,
	`topk(3, for $x in //Hotels orderby score($x) return $x)`,
	`topk(3, for $x in //RoadReports where $x/Place == "Nairobi" orderby score($x) return $x)`,
	`topk(3, for $x in //RoadReports orderby score($x) return $x)`,
	`topk(3, for $x in //FarmReports where $x/Region == "Nairobi" orderby score($x) return $x)`,
}

func TestStringWritesFormulatedQueries(t *testing.T) {
	for _, s := range formulatedQueries {
		q, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got := q.String(); got != s {
			t.Errorf("String() = %q, want %q", got, s)
		}
	}
}

var (
	oracleFields = []string{"City", "User_Attitude", "Place", "Region"}
	oracleValues = []string{"A", "B", "C"}
	oracleCenter = geo.Point{Lat: 52.52, Lon: 13.405}
)

// oracleRecord generates a record of the shape extraction and
// integration build: 1–4 top-level fields, each one certain text leaf or
// one mux of distinct text leaves with total mass at most 1, and a Geo
// element when the record is located. No ind node sits under a field:
// nothing builds one, and there ValueProb is not world-exact (two
// independent leaves both present concatenate into a third value).
func oracleRecord(rng *rand.Rand) (*pxml.Node, *geo.Point) {
	doc := pxml.Elem("Hotel")
	for _, f := range rng.Perm(len(oracleFields))[:1+rng.Intn(len(oracleFields))] {
		field := oracleFields[f]
		if rng.Intn(3) == 0 {
			doc.Add(pxml.ElemText(field, oracleValues[rng.Intn(len(oracleValues))]))
			continue
		}
		mass := 1.0
		if rng.Intn(2) == 0 {
			mass = rng.Float64()
		}
		alts := rng.Perm(len(oracleValues))[:1+rng.Intn(len(oracleValues))]
		weights := make([]float64, len(alts))
		var sum float64
		for i := range weights {
			weights[i] = 0.05 + rng.Float64()
			sum += weights[i]
		}
		mux := pxml.Mux()
		for i, v := range alts {
			mux.Add(pxml.Text(oracleValues[v]).WithProb(mass * weights[i] / sum))
		}
		doc.Add(pxml.Elem(field, mux))
	}
	if rng.Intn(2) == 0 {
		return doc, nil
	}
	loc := oracleCenter.Destination(rng.Float64()*360, rng.Float64()*80_000)
	doc.Add(pxml.Elem("Geo",
		pxml.ElemText("Lat", strconv.FormatFloat(loc.Lat, 'f', 5, 64)),
		pxml.ElemText("Lon", strconv.FormatFloat(loc.Lon, 'f', 5, 64))))
	return doc, &loc
}

// oracleQuery generates a query of a shape formulate emits: equalities on
// distinct fields (a value may be absent from every record), at most one
// near(), ranked by score.
func oracleQuery(rng *rand.Rand) *Query {
	q := &Query{TopK: 3 * rng.Intn(2), Collection: "Hotels", OrderByScore: true}
	for _, field := range oracleFields {
		if rng.Intn(3) == 0 {
			q.Where = append(q.Where, Equal{Path: field, Value: string(rune('A' + rng.Intn(4)))})
		}
	}
	if rng.Intn(2) == 0 {
		q.Near = &Near{Center: oracleCenter, RadiusMeters: rng.Float64() * 80_000}
	}
	return q
}

// worldsCondP is the mass of rec's possible worlds in which every
// conjunct of q holds.
func worldsCondP(t *testing.T, rec *Record, q *Query) float64 {
	t.Helper()
	if n := q.Near; n != nil && (rec.Location == nil || rec.Location.DistanceMeters(n.Center) > n.RadiusMeters) {
		return 0
	}
	worlds, err := pxml.EnumerateWorlds(rec.Doc, 0)
	if err != nil {
		t.Fatal(err)
	}
	var p float64
next:
	for _, w := range worlds {
		for _, e := range q.Where {
			if f, _ := w.Doc.FirstChild(e.Path); f == nil || f.TextContent() != e.Value {
				continue next
			}
		}
		p += w.P
	}
	return p
}

// TestExecuteMatchesPossibleWorlds is the possible-worlds oracle for the
// query evaluator (E10 generalised): on generated records, every result's
// CondP is the world mass where all conjuncts hold and its Score is that
// times the certainty's probability; no record with positive mass is
// missing unless top-k cut it at a score no higher than the last kept.
func TestExecuteMatchesPossibleWorlds(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := New()
		for i := 0; i < 6; i++ {
			doc, loc := oracleRecord(rng)
			if _, err := insert(db, "Hotels", doc, uncertain.CF(rng.Float64()*2-1), loc); err != nil {
				t.Fatal(err)
			}
		}
		for j := 0; j < 10; j++ {
			// Through the string, as the QA service sends it.
			q, err := Parse(oracleQuery(rng).String())
			if err != nil {
				t.Fatal(err)
			}
			results, err := db.Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			want := map[int64]float64{}
			db.Each("Hotels", func(rec *Record) bool {
				if p := worldsCondP(t, rec, q); p > 0 {
					want[rec.ID] = p * uncertain.ToProbability(rec.Certainty)
				}
				return true
			})
			wantLen := len(want)
			if q.TopK > 0 && wantLen > q.TopK {
				wantLen = q.TopK
			}
			if len(results) != wantLen {
				t.Fatalf("seed %d %s: %d results, want %d", seed, q, len(results), wantLen)
			}
			for i, r := range results {
				p := worldsCondP(t, r.Record, q)
				if math.Abs(r.CondP-p) > 1e-9 || math.Abs(r.Score-want[r.Record.ID]) > 1e-9 {
					t.Fatalf("seed %d %s: record %d CondP %v Score %v, worlds give %v and %v",
						seed, q, r.Record.ID, r.CondP, r.Score, p, want[r.Record.ID])
				}
				if i > 0 && r.Score > results[i-1].Score {
					t.Fatalf("seed %d %s: scores not descending", seed, q)
				}
				delete(want, r.Record.ID)
			}
			for id, score := range want {
				if score > results[len(results)-1].Score+1e-9 {
					t.Fatalf("seed %d %s: record %d (score %v) cut below the top %d", seed, q, id, score, q.TopK)
				}
			}
		}
	}
}

// FuzzParse: the parser never panics; an accepted query constrains each
// field once, to a non-empty value, and holds at most one near(); and
// String is a fixpoint of Parse.
func FuzzParse(f *testing.F) {
	for _, s := range append(append([]string(nil), formulatedQueries...), rejectedQueries...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		q, err := Parse(s)
		if err != nil {
			return
		}
		seen := map[string]bool{}
		for _, e := range q.Where {
			if seen[e.Path] || e.Value == "" {
				t.Fatalf("Parse(%q) accepted conjuncts %+v", s, q.Where)
			}
			seen[e.Path] = true
		}
		toks, _ := lex(s)
		nears := 0
		for i := 0; i+1 < len(toks); i++ {
			if match(toks[i], "ident", "near") && match(toks[i+1], "punct", "(") {
				nears++
			}
		}
		if nears > 1 {
			t.Fatalf("Parse(%q) accepted %d near()", s, nears)
		}
		out := q.String()
		q2, err := Parse(out)
		if err != nil {
			t.Fatalf("Parse(%q) rejects String() of %q: %v", out, s, err)
		}
		if again := q2.String(); again != out {
			t.Fatalf("String() not a fixpoint: %q then %q", out, again)
		}
	})
}
