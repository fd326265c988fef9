package main

import (
	"bytes"
	"testing"

	spex "repro"
)

// TestOracleCatchesPerturbedAnswers feeds the sequence check the oracle's
// own answers with one node shifted, one dropped and two swapped: each
// must be rejected, and the unperturbed sequence accepted.
func TestOracleCatchesPerturbedAnswers(t *testing.T) {
	doc := dmozStructure(newRNG(7, 1), 200)
	root, err := buildDOM(doc)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := answers(root, []string{dmozQuery})
	if err != nil {
		t.Fatal(err)
	}
	if err := selfTest(want[0]); err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]int64{
		"shifted": append(append([]int64(nil), want[0][:len(want[0])-1]...), want[0][len(want[0])-1]+1),
		"dropped": want[0][:len(want[0])-1],
		"swapped": append([]int64{want[0][1], want[0][0]}, want[0][2:]...),
	} {
		if checkSequence(want[0], got) == nil {
			t.Errorf("%s answer sequence accepted", name)
		}
	}
}

// TestOracleAgreesWithProgram checks the oracle against the program on a
// small document of each shape: the answer sequences and the serialized
// answers must match exactly.
func TestOracleAgreesWithProgram(t *testing.T) {
	for _, c := range []struct {
		doc   []byte
		query string
	}{
		{dmozStructure(newRNG(3, 1), 300), dmozQuery},
		{dmozContent(newRNG(3, 2), 100), extractQuery},
	} {
		root, err := buildDOM(c.doc)
		if err != nil {
			t.Fatal(err)
		}
		want, nodes, err := answers(root, []string{c.query})
		if err != nil {
			t.Fatal(err)
		}
		q := spex.MustCompile(c.query)
		var got []int64
		if _, err := q.Matches(bytes.NewReader(c.doc), func(m spex.Match) { got = append(got, m.Index) }); err != nil {
			t.Fatal(err)
		}
		if err := checkSequence(want[0], got); err != nil {
			t.Errorf("%s: %v", c.query, err)
		}
		var out bytes.Buffer
		if _, err := q.WriteResults(bytes.NewReader(c.doc), &out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), serialized(nodes[0])) {
			t.Errorf("%s: serialized answers differ from the oracle's", c.query)
		}
	}
}

// TestGeneratorIsSeeded pins that the same seed gives the same bytes and
// another seed different ones.
func TestGeneratorIsSeeded(t *testing.T) {
	a := dmozContent(newRNG(5, 2), 50)
	if !bytes.Equal(a, dmozContent(newRNG(5, 2), 50)) {
		t.Error("same seed, different documents")
	}
	if bytes.Equal(a, dmozContent(newRNG(6, 2), 50)) {
		t.Error("different seeds, same document")
	}
	if q := sdiQueries(newRNG(5, 4), sdiSubs); len(q) != sdiSubs {
		t.Errorf("%d subscriptions, want %d", len(q), sdiSubs)
	}
}
