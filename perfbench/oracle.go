package main

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/baseline"
	"repro/internal/dom"
	"repro/internal/rpeq"
)

// The oracle is the repository's DOM baseline (internal/baseline), computed
// once per run outside timing over the same generated documents. Its tree
// is built here from encoding/xml tokens rather than by the program's own
// scanner, so a scanner defect cannot hide itself in the reference.

// buildDOM materializes doc as the baseline's tree: the document node is
// index 0 and elements count from 1 in start-tag order.
func buildDOM(doc []byte) (*dom.Node, error) {
	root := &dom.Node{Kind: dom.Document, Name: "$"}
	cur := root
	next := int64(1)
	d := xml.NewDecoder(bytes.NewReader(doc))
	for {
		tok, err := d.Token()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := &dom.Node{Kind: dom.Element, Name: t.Name.Local, Index: next, Parent: cur}
			next++
			cur.Children = append(cur.Children, n)
			cur = n
		case xml.EndElement:
			cur = cur.Parent
		case xml.CharData:
			cur.Children = append(cur.Children, &dom.Node{Kind: dom.TextNode, Data: string(t), Index: -1, Parent: cur})
		}
	}
	return root, nil
}

// answers evaluates each query over the tree and returns, per query, the
// ordered answer-index sequence and the answer nodes.
func answers(root *dom.Node, queries []string) ([][]int64, [][]*dom.Node, error) {
	idx := make([][]int64, len(queries))
	nodes := make([][]*dom.Node, len(queries))
	for i, q := range queries {
		expr, err := rpeq.Parse(q)
		if err != nil {
			return nil, nil, fmt.Errorf("oracle: query %q: %w", q, err)
		}
		nodes[i] = baseline.TreeWalk{}.Eval(root, expr)
		idx[i] = make([]int64, len(nodes[i]))
		for j, n := range nodes[i] {
			idx[i][j] = n.Index
		}
	}
	return idx, nodes, nil
}

// serialized renders answer subtrees one per line, the WriteResults format,
// escaping character data as XML requires.
func serialized(nodes []*dom.Node) []byte {
	var b bytes.Buffer
	esc := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	var walk func(n *dom.Node)
	walk = func(n *dom.Node) {
		switch n.Kind {
		case dom.Element:
			b.WriteString("<" + n.Name + ">")
			for _, c := range n.Children {
				walk(c)
			}
			b.WriteString("</" + n.Name + ">")
		case dom.TextNode:
			esc.WriteString(&b, n.Data)
		}
	}
	for _, n := range nodes {
		walk(n)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// checkSequence reports whether got is exactly the oracle's ordered answer
// sequence: a count match with a wrong or misordered node is a failure.
func checkSequence(want, got []int64) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d answers, oracle has %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("answer %d is node %d, oracle has node %d", i, got[i], want[i])
		}
	}
	return nil
}

// selfTest feeds the sequence check perturbed copies of a real answer
// sequence — a dropped answer, a shifted node, two answers swapped — and
// fails unless the check rejects every one.
func selfTest(want []int64) error {
	if len(want) < 2 {
		return fmt.Errorf("self-test: needs at least 2 answers, have %d", len(want))
	}
	perturbed := map[string][]int64{
		"dropped": append([]int64(nil), want[1:]...),
		"shifted": append([]int64(nil), want...),
		"swapped": append([]int64(nil), want...),
	}
	perturbed["shifted"][len(want)/2]++
	s := perturbed["swapped"]
	s[0], s[1] = s[1], s[0]
	for name, got := range perturbed {
		if checkSequence(want, got) == nil {
			return fmt.Errorf("self-test: the oracle check accepted a %s answer sequence", name)
		}
	}
	if err := checkSequence(want, append([]int64(nil), want...)); err != nil {
		return fmt.Errorf("self-test: the oracle check rejected the oracle's own sequence: %v", err)
	}
	return nil
}
