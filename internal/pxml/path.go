package pxml

import (
	"strings"

	"repro/internal/uncertain"
)

// Path queries compute marginal probabilities directly on the
// probabilistic tree, without enumerating worlds. Independence of sibling
// distribution nodes (the model's defining property) makes the recursion
// exact: P(path) under an ind node combines by inclusion-exclusion,
// under a mux node by summation.

// PathProb returns the probability that the slash-separated element path
// (e.g. "Hotels/Hotel/City") exists in a random world of doc. The first
// segment must match the root element.
func PathProb(doc *Node, path string) float64 {
	segs := splitPath(path)
	if len(segs) == 0 {
		return 0
	}
	if doc.Kind != KindElem || doc.Tag != segs[0] {
		return 0
	}
	return descend(doc, segs[1:], "")
}

// ValueProb returns the probability that the element path exists AND its
// text content equals value.
func ValueProb(doc *Node, path, value string) float64 {
	segs := splitPath(path)
	if len(segs) == 0 {
		return 0
	}
	if doc.Kind != KindElem || doc.Tag != segs[0] {
		return 0
	}
	return descend(doc, segs[1:], value)
}

// FieldValueProb is ValueProb(doc, doc.Tag+"/"+field, value), bit for
// bit, for a field that is a child of the root: the query store's
// per-record equality test. It builds and splits no path. Inputs the
// path would split differently — a non-element root, an empty or
// slash-bearing tag or field — and an empty value go to ValueProb.
func FieldValueProb(doc *Node, field, value string) float64 {
	if doc.Kind != KindElem || doc.Tag == "" || field == "" || value == "" ||
		strings.Contains(doc.Tag, "/") || strings.Contains(field, "/") {
		return ValueProb(doc, doc.Tag+"/"+field, value)
	}
	segs := [1]string{field}
	return childrenMatchProb(doc.Children, segs[:], value)
}

// descend computes the probability that, under element n (assumed
// present), the remaining path exists (and, when wantValue != "", its text
// equals wantValue).
func descend(n *Node, segs []string, wantValue string) float64 {
	if len(segs) == 0 {
		if wantValue == "" {
			return 1
		}
		return textEqualsProb(n, wantValue)
	}
	return childrenMatchProb(n.Children, segs, wantValue)
}

// childrenMatchProb computes the probability that at least one child
// branch satisfies the remaining path. Plain element children and ind
// children are independent; mux children are exclusive.
func childrenMatchProb(children []*Node, segs []string, wantValue string) float64 {
	// probability that NO independent branch matches, times handling of
	// mux sums.
	pNone := 1.0
	for _, c := range children {
		switch c.Kind {
		case KindElem:
			if c.Tag == segs[0] {
				pNone *= 1 - descend(c, segs[1:], wantValue)
			}
		case KindInd:
			for _, gc := range c.Children {
				if gc.Kind == KindElem && gc.Tag == segs[0] {
					pNone *= 1 - gc.Prob*descend(gc, segs[1:], wantValue)
				}
			}
		case KindMux:
			// Exactly one alternative occurs: P(match via this mux) =
			// sum over matching alternatives.
			var pMux float64
			for _, gc := range c.Children {
				if gc.Kind == KindElem && gc.Tag == segs[0] {
					pMux += gc.Prob * descend(gc, segs[1:], wantValue)
				}
			}
			pNone *= 1 - pMux
		}
	}
	return 1 - pNone
}

// textEqualsProb returns the probability that n's text content equals
// value, accounting for text leaves hidden behind distribution nodes.
func textEqualsProb(n *Node, value string) float64 {
	// Certain text leaves directly under n.
	if t := n.TextContent(); t != "" {
		if t == value {
			return 1
		}
		return 0
	}
	pNone := 1.0
	for _, c := range n.Children {
		switch c.Kind {
		case KindMux:
			var pMux float64
			for _, gc := range c.Children {
				if gc.Kind == KindText && gc.Text == value {
					pMux += gc.Prob
				}
			}
			pNone *= 1 - pMux
		case KindInd:
			for _, gc := range c.Children {
				if gc.Kind == KindText && gc.Text == value {
					pNone *= 1 - gc.Prob
				}
			}
		}
	}
	return 1 - pNone
}

// ValueDist returns the distribution over the text values reachable at the
// element path — e.g. the Country field's "P(Germany) > P(USA)" — with
// any residual probability (path absent) omitted.
func ValueDist(doc *Node, path string) *uncertain.Dist {
	segs := splitPath(path)
	dist := uncertain.NewDist()
	if len(segs) == 0 || doc.Kind != KindElem || doc.Tag != segs[0] {
		return dist
	}
	collectValues(doc, segs[1:], 1, dist)
	return dist
}

// collectValues walks the path accumulating P(reach leaf with value).
func collectValues(n *Node, segs []string, p float64, dist *uncertain.Dist) {
	if p == 0 {
		return
	}
	if len(segs) == 0 {
		if t := n.TextContent(); t != "" {
			_ = dist.Add(t, p)
			return
		}
		for _, c := range n.Children {
			if c.Kind == KindMux || c.Kind == KindInd {
				for _, gc := range c.Children {
					if gc.Kind == KindText {
						_ = dist.Add(gc.Text, p*gc.Prob)
					}
				}
			}
		}
		return
	}
	for _, c := range n.Children {
		switch c.Kind {
		case KindElem:
			if c.Tag == segs[0] {
				collectValues(c, segs[1:], p, dist)
			}
		case KindMux, KindInd:
			for _, gc := range c.Children {
				if gc.Kind == KindElem && gc.Tag == segs[0] {
					collectValues(gc, segs[1:], p*gc.Prob, dist)
				}
			}
		}
	}
}

// FindAll returns every certain-or-possible element matching the path,
// with the marginal probability of the branch that reaches it.
type Match struct {
	Node *Node
	P    float64
}

// FindAll walks the path and returns matching elements with branch
// probabilities.
func FindAll(doc *Node, path string) []Match {
	segs := splitPath(path)
	if len(segs) == 0 || doc.Kind != KindElem || doc.Tag != segs[0] {
		return nil
	}
	var out []Match
	var walk func(n *Node, rest []string, p float64)
	walk = func(n *Node, rest []string, p float64) {
		if len(rest) == 0 {
			out = append(out, Match{Node: n, P: p})
			return
		}
		for _, c := range n.Children {
			switch c.Kind {
			case KindElem:
				if c.Tag == rest[0] {
					walk(c, rest[1:], p)
				}
			case KindMux, KindInd:
				for _, gc := range c.Children {
					if gc.Kind == KindElem && gc.Tag == rest[0] {
						walk(gc, rest[1:], p*gc.Prob)
					}
				}
			}
		}
	}
	walk(doc, segs[1:], 1)
	return out
}

func splitPath(path string) []string {
	path = strings.Trim(path, "/")
	if path == "" {
		return nil
	}
	return strings.Split(path, "/")
}
