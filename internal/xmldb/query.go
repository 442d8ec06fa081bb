package xmldb

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/geo"
)

// The query language is the one shape the QA service formulates, the
// paper's example:
//
//	topk(3, for $x in //Hotels
//	  where $x/City == "Berlin" and $x/User_Attitude == "Positive"
//	  orderby score($x)
//	  return $x)
//
// Grammar (case-insensitive keywords):
//
//	query := "topk(" INT "," flwor ")" | flwor
//	flwor := "for" VAR "in" "//" IDENT [ "where" cond { "and" cond } ]
//	         [ "orderby" "score(" VAR ")" ] "return" VAR
//	cond  := VAR "/" IDENT "==" STRING | "near(" VAR "," NUM "," NUM "," NUM ")"
//
// Each field may be constrained once, to a non-empty string, and a query
// holds at most one near(). Under those rules the conjuncts are
// independent events on the records extraction and integration build (one
// certain text leaf, or one mux of text leaves, per top-level field), so
// the product of their marginals is the possible-worlds probability.
//
// near($x, lat, lon, radiusMeters) matches records whose indexed location
// lies within radiusMeters of (lat, lon) — the spatial extension the paper
// asks of the probabilistic XML database. It is crisp: 1 or 0.

// Query is a parsed query: a conjunctive plan.
type Query struct {
	TopK         int // 0 means all results
	Collection   string
	Where        []Equal // on distinct fields
	Near         *Near   // nil when there is no spatial conjunct
	OrderByScore bool
}

// Equal is the conjunct $x/Path == "Value" on a top-level field.
type Equal struct {
	Path, Value string
}

// Near is the spatial conjunct near($x, lat, lon, radius).
type Near struct {
	Center       geo.Point
	RadiusMeters float64
}

// String writes q in the syntax Parse reads, naming the variable $x and
// listing near() first. It is the only writer of the syntax: near's
// coordinates are written to four decimals and its radius to the metre,
// so Parse(q.String()).String() == q.String().
func (q *Query) String() string {
	var conds []string
	if n := q.Near; n != nil {
		conds = append(conds, fmt.Sprintf("near($x, %.4f, %.4f, %.0f)", n.Center.Lat, n.Center.Lon, n.RadiusMeters))
	}
	for _, e := range q.Where {
		conds = append(conds, fmt.Sprintf(`$x/%s == "%s"`, e.Path, e.Value))
	}
	var b strings.Builder
	if q.TopK > 0 {
		fmt.Fprintf(&b, "topk(%d, ", q.TopK)
	}
	b.WriteString("for $x in //" + q.Collection)
	if len(conds) > 0 {
		b.WriteString(" where " + strings.Join(conds, " and "))
	}
	if q.OrderByScore {
		b.WriteString(" orderby score($x)")
	}
	b.WriteString(" return $x")
	if q.TopK > 0 {
		b.WriteString(")")
	}
	return b.String()
}

type qtok struct {
	kind string // ident, var, str, num, punct
	text string
}

// parser reads tokens with a sticky error: after the first failure every
// step is a no-op that consumes, and Parse reports that first failure.
type parser struct {
	toks []qtok
	pos  int
	err  error
}

// Parse parses a query string.
func Parse(s string) (*Query, error) {
	toks, err := lex(s)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q := &Query{}
	if p.accept("ident", "topk") {
		p.expect("punct", "(")
		t := p.expect("num", "")
		if k, err := strconv.Atoi(t.text); err != nil || k < 1 {
			p.fail("invalid topk count %q", t.text)
		} else {
			q.TopK = k
		}
		p.expect("punct", ",")
	}
	p.flwor(q)
	if q.TopK > 0 {
		p.expect("punct", ")")
	}
	if p.err == nil && p.pos != len(p.toks) {
		p.fail("trailing input at %q", p.peek().text)
	}
	if p.err != nil {
		return nil, p.err
	}
	return q, nil
}

func isWordRune(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' }

func lex(s string) ([]qtok, error) {
	var out []qtok
	runes := []rune(s)
	for i := 0; i < len(runes); {
		r, j := runes[i], i+1
		switch {
		case unicode.IsSpace(r):
		case r == '$' || r == '_' || unicode.IsLetter(r):
			for j < len(runes) && isWordRune(runes[j]) {
				j++
			}
			kind := "ident"
			if r == '$' {
				if j == i+1 {
					return nil, fmt.Errorf("xmldb: bare $ at offset %d", i)
				}
				kind = "var"
			}
			out = append(out, qtok{kind, string(runes[i:j])})
		case r == '"' || r == '“' || r == '”':
			// The paper's own example uses typographic quotes.
			for j < len(runes) && runes[j] != '"' && runes[j] != '”' {
				j++
			}
			if j == len(runes) {
				return nil, fmt.Errorf("xmldb: unterminated string at offset %d", i)
			}
			out = append(out, qtok{"str", string(runes[i+1 : j])})
			j++
		case unicode.IsDigit(r) || (r == '-' && j < len(runes) && unicode.IsDigit(runes[j])):
			for j < len(runes) && (unicode.IsDigit(runes[j]) || runes[j] == '.') {
				j++
			}
			out = append(out, qtok{"num", string(runes[i:j])})
		case strings.ContainsRune("(),/", r):
			out = append(out, qtok{"punct", string(r)})
		case r == '=' && j < len(runes) && runes[j] == '=':
			out = append(out, qtok{"punct", "=="})
			j++
		default:
			return nil, fmt.Errorf("xmldb: unexpected character %q at offset %d", r, i)
		}
		i = j
	}
	return out, nil
}

func (p *parser) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf("xmldb: "+format, args...)
	}
}

func (p *parser) peek() qtok {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return qtok{}
}

// match reports whether t has the kind and, unless text is empty, the
// text; keywords compare case-insensitively.
func match(t qtok, kind, text string) bool {
	return t.kind == kind && (text == "" || t.text == text || (kind == "ident" && strings.EqualFold(t.text, text)))
}

func (p *parser) accept(kind, text string) bool {
	if p.err == nil && match(p.peek(), kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind, text string) qtok {
	t := p.peek()
	p.pos++
	if !match(t, kind, text) {
		if text == "" {
			text = kind
		}
		p.fail("expected %s, got %q", text, t.text)
	}
	return t
}

func (p *parser) number() float64 {
	t := p.expect("num", "")
	f, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		p.fail("bad number %q", t.text)
	}
	return f
}

func (p *parser) flwor(q *Query) {
	p.expect("ident", "for")
	v := p.expect("var", "").text
	p.expect("ident", "in")
	p.expect("punct", "/")
	p.expect("punct", "/")
	q.Collection = p.expect("ident", "").text
	if p.accept("ident", "where") {
		p.cond(q, v)
		for p.accept("ident", "and") {
			p.cond(q, v)
		}
	}
	if p.accept("ident", "orderby") {
		p.expect("ident", "score")
		p.expect("punct", "(")
		p.expect("var", v)
		p.expect("punct", ")")
		q.OrderByScore = true
	}
	p.expect("ident", "return")
	p.expect("var", v)
}

func (p *parser) cond(q *Query, v string) {
	if p.accept("ident", "near") {
		p.expect("punct", "(")
		p.expect("var", v)
		p.expect("punct", ",")
		lat := p.number()
		p.expect("punct", ",")
		lon := p.number()
		p.expect("punct", ",")
		radius := p.number()
		p.expect("punct", ")")
		center, err := geo.NewPoint(lat, lon)
		switch {
		case err != nil:
			p.fail("near(): %v", err)
		case radius < 0:
			p.fail("negative radius %v", radius)
		case q.Near != nil:
			p.fail("a second near()")
		}
		q.Near = &Near{Center: center, RadiusMeters: radius}
		return
	}
	p.expect("var", v)
	p.expect("punct", "/")
	e := Equal{Path: p.expect("ident", "").text}
	p.expect("punct", "==")
	e.Value = p.expect("str", "").text
	if e.Value == "" {
		p.fail("empty value for %s", e.Path)
	}
	for _, w := range q.Where {
		if w.Path == e.Path {
			p.fail("field %s constrained twice", e.Path)
		}
	}
	q.Where = append(q.Where, e)
}
