package spex

import (
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/multi"
	"repro/internal/rpeq"
	"repro/internal/spexnet"
	"repro/internal/xmlstream"
)

// fuzzDoc interprets prog as a tree-building program and renders the
// resulting document: each byte either closes the innermost open element
// (odd bytes) or opens one of four names (even bytes, two name-selector
// bits). An opening byte's higher bits attach attributes: bit 3 adds k
// (value "1" or "2" by bit 5), bit 4 adds s="v" — so the fuzzer explores
// attribute presence and value agreement alongside tree shape. The whole
// program is wrapped in a <r> root, so any byte string yields a
// well-formed, single-rooted, element-only document — the fuzzer explores
// tree shapes instead of fighting XML syntax.
func fuzzDoc(prog []byte) string {
	const maxOps = 96
	if len(prog) > maxOps {
		prog = prog[:maxOps]
	}
	names := [4]string{"a", "b", "c", "q"}
	var b strings.Builder
	var stack []string
	b.WriteString("<r>")
	for _, op := range prog {
		if op&1 == 1 {
			if n := len(stack); n > 0 {
				b.WriteString("</" + stack[n-1] + ">")
				stack = stack[:n-1]
			}
			continue
		}
		name := names[(op>>1)&3]
		b.WriteString("<" + name)
		if op&8 != 0 {
			if op&32 != 0 {
				b.WriteString(` k="2"`)
			} else {
				b.WriteString(` k="1"`)
			}
		}
		if op&16 != 0 {
			b.WriteString(` s="v"`)
		}
		b.WriteString(">")
		stack = append(stack, name)
	}
	for i := len(stack) - 1; i >= 0; i-- {
		b.WriteString("</" + stack[i] + ">")
	}
	b.WriteString("</r>")
	return b.String()
}

// fuzzProg renders a shape spelled as a string of opens (a, b, c, q) and
// closes (any other byte, conventionally '.') into the program encoding —
// the inverse of fuzzDoc, for seeding the corpus with specific trees.
func fuzzProg(shape string) []byte {
	sel := map[byte]byte{'a': 0, 'b': 1, 'c': 2, 'q': 3}
	prog := make([]byte, len(shape))
	for i := 0; i < len(shape); i++ {
		if c, ok := sel[shape[i]]; ok {
			prog[i] = c << 1
		} else {
			prog[i] = 1
		}
	}
	return prog
}

// FuzzEngineEquivalence is the differential correctness harness: for every
// query the compiler accepts and every generated document, the sequential,
// shared and parallel multi-query engines must report exactly the answer
// count of the DOM tree-walk oracle. The seed corpus covers the paper's
// Figure-1 running example ("<a><a><c/></a><b/><c/></a>", here nested
// under the generated root) and the adversarial query shapes.
func FuzzEngineEquivalence(f *testing.F) {
	// Opens/closes spelling Fig. 1's document: <a><a><c/></a><b/><c/></a>.
	fig1 := fuzzProg("aac..b.c..")
	for _, q := range []string{
		"_*.a[b].c", "_*.c", "_*.a[c].c", "a.a.c", "_*.a[_*.b]",
		"_*[_*[q]]", "(a|b).c", "a+.c", "//a[b]/c", "_*.a[b]._*.c",
	} {
		f.Add(q, fig1)
	}
	f.Add("_*.b[preceding::a]", fuzzProg("a.b."))
	f.Add("r.a", []byte{})
	// Attribute-bearing shapes: Fig. 1 with k="1" on every element, and a
	// mixed shape where only some elements carry k or s.
	attrFig1 := fuzzProg("aac..b.c..")
	for i := range attrFig1 {
		attrFig1[i] |= 8
	}
	for _, q := range []string{
		`_*.a[@k]`, `_*.a[@k="1"].c`, `_*.a[@k!="1"]`, `_*.a[not(@k)]`,
		`_*.a[@k and not(@s)].c`, `_*._.@k`, `//a[@k='1']/c`, `_*.a[@s or c]`,
	} {
		f.Add(q, attrFig1)
	}
	f.Add(`_*.a[@k="2"]`, []byte{8 | 32, 8, 16, 1, 1, 1})

	f.Fuzz(func(t *testing.T, query string, prog []byte) {
		if len(query) > 48 {
			return // keep per-input cost bounded
		}
		expr, err := rpeq.Parse(query)
		if err != nil {
			if expr, err = rpeq.Parse(query, rpeq.WithXPath()); err != nil {
				return
			}
			query = expr.String() // the engines take rpeq syntax
		}
		plan, err := core.Prepare(query)
		if err != nil {
			return // parsed but outside the compiled fragment
		}
		doc := fuzzDoc(prog)

		nodes, err := baseline.EvalReader(baseline.TreeWalk{}, strings.NewReader(doc), expr)
		if err != nil {
			t.Fatalf("oracle failed on generated doc %q: %v", doc, err)
		}
		want := int64(len(nodes))
		wantIdx := make([]int64, len(nodes))
		for i, n := range nodes {
			wantIdx[i] = n.Index
		}
		// got collects the engine under test's answer indices in delivery
		// order: a wrong node with the right count diverges here.
		var got []int64
		sameSeq := func() bool {
			if len(got) != len(wantIdx) {
				return false
			}
			for i := range got {
				if got[i] != wantIdx[i] {
					return false
				}
			}
			return true
		}

		type engine struct {
			name string
			mk   func() (interface {
				Run(src xmlstream.Source) error
				Matches() map[string]int64
			}, error)
		}
		sub := func() []multi.Subscription {
			got = got[:0]
			return []multi.Subscription{{Name: "q", Plan: plan,
				OnHit: func(_ string, r spexnet.Result) { got = append(got, r.Index) }}}
		}
		engines := []engine{
			{"sequential", func() (interface {
				Run(src xmlstream.Source) error
				Matches() map[string]int64
			}, error) {
				return multi.NewSet(sub())
			}},
			{"shared", func() (interface {
				Run(src xmlstream.Source) error
				Matches() map[string]int64
			}, error) {
				return multi.NewSharedSet(sub())
			}},
			{"parallel", func() (interface {
				Run(src xmlstream.Source) error
				Matches() map[string]int64
			}, error) {
				return multi.NewParallelSet(sub(), multi.ParallelOptions{Shards: 2, BatchSize: 3})
			}},
			{"merged", func() (interface {
				Run(src xmlstream.Source) error
				Matches() map[string]int64
			}, error) {
				return multi.NewMergedSet(sub())
			}},
		}
		for _, e := range engines {
			eng, err := e.mk()
			if err != nil {
				t.Fatalf("%s: building engine for %q: %v", e.name, query, err)
			}
			src := xmlstream.NewScanner(strings.NewReader(doc), xmlstream.WithText(false))
			if err := eng.Run(src); err != nil {
				t.Fatalf("%s: %q over %q: %v", e.name, query, doc, err)
			}
			if n := eng.Matches()["q"]; n != want {
				t.Fatalf("%s diverges from the DOM oracle on %q over %q: %d matches, oracle %d",
					e.name, query, doc, n, want)
			}
			if !sameSeq() {
				t.Fatalf("%s diverges from the DOM oracle on %q over %q: answers %v, oracle %v",
					e.name, query, doc, got, wantIdx)
			}
		}
		// Parallel chunk-scan ingest arm: the stitched event stream must
		// drive an engine to the oracle's counts too. Split targets are
		// fuzzed from the program bytes, so boundary choices land inside
		// tags, attribute values and text runs at the splitter's discretion.
		if n := len(doc); n > 1 {
			h := uint64(n) * 0x9E3779B97F4A7C15
			for _, c := range prog {
				h = (h ^ uint64(c)) * 0x100000001B3
			}
			var targets []int
			for k := 0; k < 1+int(h%3); k++ {
				h ^= h >> 12
				h ^= h << 25
				h ^= h >> 27
				targets = append(targets, int((h*0x2545F4914F6CDD1D)%uint64(n)))
			}
			eng, err := multi.NewSet(sub())
			if err != nil {
				t.Fatalf("parallel-scan: building engine for %q: %v", query, err)
			}
			src := xmlstream.NewParallelScannerAt([]byte(doc), targets, xmlstream.WithText(false))
			if err := eng.Run(src); err != nil {
				t.Fatalf("parallel-scan: %q over %q at %v: %v", query, doc, targets, err)
			}
			if n := eng.Matches()["q"]; n != want {
				t.Fatalf("parallel-scan ingest diverges from the DOM oracle on %q over %q at %v: %d matches, oracle %d",
					query, doc, targets, n, want)
			}
			if !sameSeq() {
				t.Fatalf("parallel-scan ingest diverges from the DOM oracle on %q over %q at %v: answers %v, oracle %v",
					query, doc, targets, got, wantIdx)
			}
		}
	})
}
