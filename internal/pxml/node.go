// Package pxml implements probabilistic XML trees in the style the paper
// builds on (ProTDB/PEPX lineage, reference [26]): ordinary element and
// text nodes interleaved with distribution nodes. A mux node chooses at
// most one of its children (probabilities sum to <= 1; any remainder is
// the "none" outcome); an ind node includes each child independently with
// its own probability. A probabilistic document denotes a distribution
// over ordinary XML documents — its possible worlds — and queries return
// marginal probabilities over that distribution.
package pxml

import (
	"fmt"
	"math"
	"strings"
)

// Kind discriminates node types.
type Kind int

// Node kinds.
const (
	KindElem Kind = iota // ordinary element, always present given parent
	KindText             // text leaf
	KindMux              // mutually exclusive distribution node
	KindInd              // independent distribution node
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindElem:
		return "elem"
	case KindText:
		return "text"
	case KindMux:
		return "mux"
	case KindInd:
		return "ind"
	default:
		return "unknown"
	}
}

// Node is one node of a probabilistic XML tree.
type Node struct {
	Kind Kind
	// Tag is the element name (KindElem only).
	Tag string
	// Text is the value of a text leaf (KindText only).
	Text string
	// Prob is the probability of this node's edge from its distribution-
	// node parent. It is meaningful only when the parent is KindMux or
	// KindInd; otherwise 1.
	Prob float64
	// Children, in document order.
	Children []*Node
}

// Elem returns a new element node.
func Elem(tag string, children ...*Node) *Node {
	return &Node{Kind: KindElem, Tag: tag, Prob: 1, Children: children}
}

// Text returns a new text leaf.
func Text(value string) *Node {
	return &Node{Kind: KindText, Text: value, Prob: 1}
}

// ElemText returns <tag>value</tag>.
func ElemText(tag, value string) *Node {
	return Elem(tag, Text(value))
}

// Mux returns a mutually-exclusive distribution node over the given
// children; each child's Prob must already be set.
func Mux(children ...*Node) *Node {
	return &Node{Kind: KindMux, Prob: 1, Children: children}
}

// Ind returns an independent distribution node over the given children.
func Ind(children ...*Node) *Node {
	return &Node{Kind: KindInd, Prob: 1, Children: children}
}

// WithProb sets the node's edge probability and returns it (builder
// style): pxml.ElemText("Country", "Germany").WithProb(0.8).
func (n *Node) WithProb(p float64) *Node {
	n.Prob = p
	return n
}

// Add appends children and returns n.
func (n *Node) Add(children ...*Node) *Node {
	n.Children = append(n.Children, children...)
	return n
}

// Validate checks structural invariants recursively:
//   - element tags non-empty; text leaves childless
//   - probabilities in [0, 1]; mux children sum to <= 1 (+epsilon)
//   - distribution nodes are not leaves of the document root chain
func (n *Node) Validate() error {
	return n.validate(true)
}

func (n *Node) validate(isRoot bool) error {
	if math.IsNaN(n.Prob) || n.Prob < 0 || n.Prob > 1+1e-9 {
		return fmt.Errorf("pxml: probability %v out of range", n.Prob)
	}
	switch n.Kind {
	case KindElem:
		if strings.TrimSpace(n.Tag) == "" {
			return fmt.Errorf("pxml: element with empty tag")
		}
	case KindText:
		if len(n.Children) != 0 {
			return fmt.Errorf("pxml: text node with children")
		}
	case KindMux:
		var sum float64
		for _, c := range n.Children {
			sum += c.Prob
		}
		if sum > 1+1e-9 {
			return fmt.Errorf("pxml: mux children probabilities sum to %v > 1", sum)
		}
		if isRoot {
			return fmt.Errorf("pxml: distribution node cannot be the root")
		}
	case KindInd:
		if isRoot {
			return fmt.Errorf("pxml: distribution node cannot be the root")
		}
	default:
		return fmt.Errorf("pxml: unknown node kind %d", n.Kind)
	}
	for _, c := range n.Children {
		if c == nil {
			return fmt.Errorf("pxml: nil child under %s", n.Tag)
		}
		if err := c.validate(false); err != nil {
			return err
		}
	}
	return nil
}

// Clone returns a deep copy.
func (n *Node) Clone() *Node {
	c := &Node{Kind: n.Kind, Tag: n.Tag, Text: n.Text, Prob: n.Prob}
	if len(n.Children) > 0 {
		c.Children = make([]*Node, len(n.Children))
		for i, ch := range n.Children {
			c.Children[i] = ch.Clone()
		}
	}
	return c
}

// FirstChild returns the first KindElem child with the given tag that is a
// direct child (looking through distribution nodes), together with the
// probability of the edge path to it.
func (n *Node) FirstChild(tag string) (*Node, float64) {
	for _, c := range n.Children {
		switch c.Kind {
		case KindElem:
			if c.Tag == tag {
				return c, 1
			}
		case KindMux, KindInd:
			for _, gc := range c.Children {
				if gc.Kind == KindElem && gc.Tag == tag {
					return gc, gc.Prob
				}
			}
		}
	}
	return nil, 0
}

// TextContent concatenates the text leaves directly under n (certain
// children only).
func (n *Node) TextContent() string {
	if len(n.Children) == 1 && n.Children[0].Kind == KindText {
		return n.Children[0].Text
	}
	var sb strings.Builder
	for _, c := range n.Children {
		if c.Kind == KindText {
			sb.WriteString(c.Text)
		}
	}
	return sb.String()
}

// IsDeterministic reports whether the subtree contains no distribution
// nodes.
func (n *Node) IsDeterministic() bool {
	if n.Kind == KindMux || n.Kind == KindInd {
		return false
	}
	for _, c := range n.Children {
		if !c.IsDeterministic() {
			return false
		}
	}
	return true
}

// CountNodes returns the subtree size including n.
func (n *Node) CountNodes() int {
	total := 1
	for _, c := range n.Children {
		total += c.CountNodes()
	}
	return total
}
