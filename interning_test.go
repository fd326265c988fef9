package spex

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/rpeq"
	"repro/internal/spexnet"
	"repro/internal/xmlstream"
)

// TestCountModeZeroAlloc is the acceptance gate of the symbol pipeline: the
// count-mode inner loop over a warm network, replaying pre-resolved events,
// performs zero allocations per document. CI runs this test in the bench
// smoke job; a regression that re-introduces steady-state allocation fails
// it rather than just shifting a benchmark number.
//
// The qualifier case pins the Fig. 15 class-2 query: its candidates wait for
// a later editor, so each Topic allocates its candidate record — and
// nothing else: the condition formulas of an unnested qualifier build no
// nodes, and the sink reuses its queue slots and variable lists. The engine
// allocated six times per Topic before the message path was slimmed; a
// change that allocates more than the record per candidate fails here.
func TestCountModeZeroAlloc(t *testing.T) {
	const topics = 200
	var doc bytes.Buffer
	doc.WriteString("<RDF>")
	for i := 0; i < topics; i++ {
		doc.WriteString("<Topic><Title></Title><editor></editor></Topic>")
	}
	doc.WriteString("</RDF>")

	symtab := xmlstream.NewSymtab()
	events, err := xmlstream.Collect(xmlstream.NewScanner(&doc,
		xmlstream.WithText(false), xmlstream.WithSymtab(symtab)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		query     string
		maxAllocs float64 // per document
	}{
		{"path", "_*.Topic.Title", 0},
		{"qualifier", "_*.Topic[editor].Title", topics},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, err := spexnet.Build(rpeq.MustParse(tc.query), spexnet.Options{
				Mode:   spexnet.ModeCount,
				Symtab: symtab,
			})
			if err != nil {
				t.Fatal(err)
			}
			src := &xmlstream.SliceSource{Events: events}
			feed := func() {
				src.Reset()
				if _, err := net.Run(src); err != nil {
					t.Fatal(err)
				}
			}
			// One warm pass grows the tapes and transducer stacks to their
			// steady size (AllocsPerRun adds its own warm-up run on top).
			feed()
			if allocs := testing.AllocsPerRun(5, feed); allocs > tc.maxAllocs {
				t.Fatalf("%s: count-mode steady state allocates %.1f times per document, want ≤ %.0f",
					tc.query, allocs, tc.maxAllocs)
			}
			if n := net.Matches(); n == 0 {
				t.Fatal("allocation-gated run found no answers; workload broken")
			}
		})
	}
}

// interningCorpus pairs documents with the queries cross-validated on them.
// The documents probe the interner's edges: the paper's Fig. 1 document,
// a DMOZ-shaped catalog, labels that are prefixes of one another, unicode
// labels, and adjacent empty elements.
var interningCorpus = []struct {
	name    string
	doc     string
	queries []string
}{
	{
		name: "paper-fig1",
		doc:  "<a><a><c></c></a><b></b><c></c></a>",
		queries: []string{
			"a", "_*.c", "a.a.c", "a._", "_*.a[c]", "a[b].c", "a[_*.c]._",
		},
	},
	{
		name: "dmoz-shape",
		doc: "<RDF>" + strings.Repeat(
			"<Topic><catid>1</catid><Title>t</Title><link></link></Topic>"+
				"<ExternalPage><Title>x</Title></ExternalPage>", 7) + "</RDF>",
		queries: []string{
			"_*.Topic.Title", "RDF._", "_*.Title", "RDF.Topic[link].Title", "_*._",
		},
	},
	{
		name: "colliding-prefixes",
		doc:  "<a><aa><ab></ab></aa><ab></ab><a></a></a>",
		queries: []string{
			"a.aa", "_*.ab", "a.a", "a[aa.ab]._", "_*.aa.ab",
		},
	},
	{
		// The rpeq grammar is ASCII, but the document side of the interner
		// must treat multi-byte labels like any other: wildcards traverse
		// them and an ascii sibling distinguishes itself from them.
		name: "unicode-labels",
		doc:  "<r><città>x</città><città></città><x></x><日本><x></x></日本></r>",
		queries: []string{
			"r._", "_*._", "r.x", "_*.x", "r[x]._",
		},
	},
	{
		name: "empty-adjacent",
		doc:  "<r><x></x><x></x><y></y><x></x></r>",
		queries: []string{
			"r.x", "r._", "_*.x", "r[y].x",
		},
	},
}

// TestInterningCrossValidation evaluates every corpus query on the symbol
// pipeline and requires byte-identical serialized answers to the DOM
// oracle's, so a label that interns to the wrong symbol (a prefix collision,
// a multi-byte label) shows as a wrong node or wrong content.
func TestInterningCrossValidation(t *testing.T) {
	for _, tc := range interningCorpus {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, query := range tc.queries {
				plan, err := core.Prepare(query)
				if err != nil {
					t.Fatalf("%s: %v", query, err)
				}
				var got strings.Builder
				eo := core.EvalOptions{
					Mode: spexnet.ModeSerialize,
					Sink: func(res spexnet.Result) {
						fmt.Fprintf(&got, "%d %s %s\n",
							res.Index, res.Name, xmlstream.Serialize(res.Events))
					},
				}
				if _, err := plan.EvaluateReader(strings.NewReader(tc.doc), eo); err != nil {
					t.Fatalf("%s: %v", query, err)
				}
				nodes, err := baseline.EvalReader(baseline.TreeWalk{}, strings.NewReader(tc.doc), rpeq.MustParse(query))
				if err != nil {
					t.Fatalf("%s: oracle: %v", query, err)
				}
				var want strings.Builder
				for _, n := range nodes {
					fmt.Fprintf(&want, "%d %s %s\n", n.Index, n.Name, xmlstream.Serialize(n.Events()))
				}
				if got.String() != want.String() {
					t.Errorf("%s: answers diverge\ninterned:\n%s\noracle:\n%s",
						query, got.String(), want.String())
				}
			}
		})
	}
}

// TestSetEnginesAgree runs the same query set on all three Set engines and
// requires identical per-query counts and match lists (the acceptance
// criterion that Sequential, Shared and Parallel return the same answers).
func TestSetEnginesAgree(t *testing.T) {
	doc := "<RDF>" + strings.Repeat(
		"<Topic><catid>7</catid><Title>t</Title></Topic><Alias><Title>a</Title></Alias>", 9) +
		"</RDF>"
	queries := []*Query{
		MustCompile("_*.Topic.Title"),
		MustCompile("RDF._"),
		MustCompile("_*.Title"),
		MustCompile("RDF.Topic[catid].Title"),
	}
	type answers struct {
		counts  []int64
		matches map[int][]Match
	}
	run := func(opts ...SetOption) answers {
		got := answers{matches: make(map[int][]Match)}
		set := NewSet(queries, func(q int, m Match) {
			got.matches[q] = append(got.matches[q], m)
		}, opts...)
		if err := set.Evaluate(strings.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
		got.counts = set.Counts()
		return got
	}
	sequential := run(Sequential())
	shared := run(Shared())
	parallel := run(Parallel(2))
	for i := range queries {
		if sequential.counts[i] == 0 {
			t.Errorf("query %d found no answers; workload broken", i)
		}
		if sequential.counts[i] != shared.counts[i] || sequential.counts[i] != parallel.counts[i] {
			t.Errorf("query %d: counts diverge: sequential=%d shared=%d parallel=%d",
				i, sequential.counts[i], shared.counts[i], parallel.counts[i])
		}
		seq := fmt.Sprint(sequential.matches[i])
		if got := fmt.Sprint(shared.matches[i]); got != seq {
			t.Errorf("query %d: shared matches diverge\nsequential: %s\nshared:     %s", i, seq, got)
		}
		if got := fmt.Sprint(parallel.matches[i]); got != seq {
			t.Errorf("query %d: parallel matches diverge\nsequential: %s\nparallel:   %s", i, seq, got)
		}
	}
}

// TestConcurrentStreamsShareSymtab drives several push-mode Streams of one
// compiled Query concurrently, each feeding labels mostly distinct per
// goroutine. All runs intern into the query plan's shared symbol table, so
// under -race this exercises the copy-on-write reader/writer protocol of
// the interner on its intended access pattern.
func TestConcurrentStreamsShareSymtab(t *testing.T) {
	q := MustCompile("_*.x")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var matches int
			s, err := q.Stream(func(Match) { matches++ })
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 500; i++ {
				label := fmt.Sprintf("l%d_%d", g, i)
				if err := s.StartElement(label); err != nil {
					t.Error(err)
					return
				}
				if err := s.StartElement("x"); err != nil {
					t.Error(err)
					return
				}
				if err := s.EndElement("x"); err != nil {
					t.Error(err)
					return
				}
				if err := s.EndElement(label); err != nil {
					t.Error(err)
					return
				}
			}
			if err := s.Close(); err != nil {
				t.Error(err)
				return
			}
			if matches != 500 {
				t.Errorf("goroutine %d: %d matches, want 500", g, matches)
			}
		}(g)
	}
	wg.Wait()
	if n := q.plan.Symtab().Len(); n < 4*500 {
		t.Errorf("symtab holds %d symbols, want at least 2000", n)
	}
}

// TestMatchesDocReleasesRun covers the early-exit bugfix: MatchesDoc stops
// mid-stream on the first answer and must still release the run (Release is
// idempotent, so the non-early path is covered too).
func TestMatchesDocReleasesRun(t *testing.T) {
	q := MustCompile("_*.hit")
	// The answer appears early in a long document; evaluation must stop
	// without consuming the rest (an erroring reader after the answer
	// would fail the test if it were read).
	head := "<r><hit></hit>"
	r := io.MultiReader(strings.NewReader(head), failingReader{})
	ok, err := q.MatchesDoc(r)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("expected a match")
	}
	// No match at all: the run completes and closes normally.
	ok, err = q.MatchesDoc(strings.NewReader("<r><miss></miss></r>"))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("unexpected match")
	}
}

type failingReader struct{}

func (failingReader) Read([]byte) (int, error) {
	return 0, fmt.Errorf("read past the early-exit point")
}
