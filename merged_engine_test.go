package spex

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/bench"
)

// engineHit is one answer with its originating query position — the unit
// the cross-validation below compares across engines. Two engines agree on
// a workload iff they produce the same hit sequence per query and the same
// Counts slice.
type engineHit struct {
	query int
	index int64
	name  string
}

// setEngines enumerates every engine selection a Set can run under,
// including the merged compiler composed with the parallel sharder. The
// sequential engine is the baseline the others are checked against.
var setEngines = []struct {
	name string
	opts []SetOption
}{
	{"sequential", []SetOption{Sequential()}},
	{"shared", []SetOption{Shared()}},
	{"parallel", []SetOption{Parallel(2)}},
	{"merged", []SetOption{Merged()}},
	{"merged+parallel", []SetOption{Merged(), Parallel(2)}},
}

// runSetEngine evaluates the queries over doc under one engine selection
// and returns the hit sequence and per-query counts.
func runSetEngine(t *testing.T, queries []*Query, doc string, opts ...SetOption) ([]engineHit, []int64) {
	t.Helper()
	var hits []engineHit
	set := NewSet(queries, func(qi int, m Match) {
		hits = append(hits, engineHit{qi, m.Index, m.Name})
	}, opts...)
	if err := set.Evaluate(strings.NewReader(doc)); err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	return hits, set.Counts()
}

// perQuery splits a hit sequence by query position. The engines only
// guarantee document order per query — the parallel engine may interleave
// different queries' deliveries differently — so the comparison is
// per-query, not on the global sequence.
func perQuery(n int, hits []engineHit) [][]engineHit {
	out := make([][]engineHit, n)
	for _, h := range hits {
		out[h.query] = append(out[h.query], h)
	}
	return out
}

// crossValidate runs the workload under every engine and requires each to
// reproduce the sequential baseline's per-query answers exactly.
func crossValidate(t *testing.T, queries []*Query, doc string) {
	t.Helper()
	baseHits, baseCounts := runSetEngine(t, queries, doc, Sequential())
	base := perQuery(len(queries), baseHits)
	for _, e := range setEngines[1:] {
		hits, counts := runSetEngine(t, queries, doc, e.opts...)
		for i := range counts {
			if counts[i] != baseCounts[i] {
				t.Errorf("%s: query %d counts %d, sequential %d", e.name, i, counts[i], baseCounts[i])
			}
		}
		got := perQuery(len(queries), hits)
		for qi := range base {
			if len(got[qi]) != len(base[qi]) {
				t.Errorf("%s: query %d delivered %d hits, sequential %d", e.name, qi, len(got[qi]), len(base[qi]))
				continue
			}
			for j := range base[qi] {
				if got[qi][j] != base[qi][j] {
					t.Errorf("%s: query %d hit %d = %+v, sequential %+v", e.name, qi, j, got[qi][j], base[qi][j])
				}
			}
		}
	}
}

// TestMergedEngineFig1 cross-validates the merged engine on the paper's
// Figure-1 running example with an overlapping subscription mix: an exact
// duplicate (collapses onto one sink), an equivalent rephrasing via a
// nullable qualifier, a containing query, and a statically unsatisfiable
// member (pruned before any transducer is built).
func TestMergedEngineFig1(t *testing.T) {
	queries := []*Query{
		MustCompile("_*.a[b].c"),
		MustCompile("_*.a[b].c"),  // duplicate of 0
		MustCompile("_*.a[b*].c"), // [b*] is nullable: equivalent to _*.a.c
		MustCompile("_*.c"),       // contains the others
		MustCompile("a.b"),
		MustCompile(`c[@x="1" and @x="2"]`), // unsatisfiable: pruned
	}
	crossValidate(t, queries, paperDoc)
}

// TestMergedEngineDMOZ cross-validates on a DMOZ-shaped document with the
// same query heads the sdi-shared benchmark subscribes — shared spines with
// divergent tails, which is where prefix factoring actually shares work.
func TestMergedEngineDMOZ(t *testing.T) {
	var buf bytes.Buffer
	if _, err := bench.Dataset("dmoz-structure", 0.002).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	queries := []*Query{
		MustCompile("_*.Topic"),
		MustCompile("_*.Topic.catid"),
		MustCompile("_*.Topic[catid]"),
		MustCompile("RDF.Topic"),
		MustCompile("_*.Topic"), // duplicate
		MustCompile("_*.Topic[catid*].Title"),
	}
	crossValidate(t, queries, buf.String())
}

// TestMergedEngineAttributes cross-validates attribute tests: value
// agreement, negation, and an attribute-contradiction that the static
// pre-pass prunes.
func TestMergedEngineAttributes(t *testing.T) {
	doc := `<r><a k="1"><c/></a><a k="2"><c/></a><a><c/></a><a k="1" s="v"><c/></a></r>`
	queries := []*Query{
		MustCompile(`_*.a[@k].c`),
		MustCompile(`_*.a[@k="1"].c`),
		MustCompile(`_*.a[not(@k)].c`),
		MustCompile(`_*.a[@k="1"].c`), // duplicate
		MustCompile(`_*.a[@k and not(@s)].c`),
		MustCompile(`_*.a[@k="1" and @k="2"]`), // unsatisfiable
	}
	crossValidate(t, queries, doc)
}

// TestMergedEngineLimits cross-validates answer limits: collapsed
// duplicates with different budgets must each stop at their own limit, and
// an unlimited member sharing the sink must still see every answer.
func TestMergedEngineLimits(t *testing.T) {
	doc := `<r><a><c/></a><a><c/></a><a><c/></a><a><c/></a></r>`
	queries := []*Query{
		MustCompile("_*.c").Limited(1),
		MustCompile("_*.c").Limited(3),
		MustCompile("_*.c"), // unlimited, same canonical form
		MustCompile("_*.a.c").Limited(2),
		MustCompile("r.a[c]"),
	}
	crossValidate(t, queries, doc)
}

// TestMergedSetReuseAcrossDocuments evaluates one merged Set over several
// documents in turn — its set-compiler program is compiled at the first
// Evaluate and reused by the rest — and requires each document's ordered
// per-query answers and counts to equal those of a fresh Set built for that
// document alone. The documents differ in shape, so a network or sink state
// leaking from one evaluation into the next shows as a wrong answer.
func TestMergedSetReuseAcrossDocuments(t *testing.T) {
	queries := []*Query{
		MustCompile("_*.a[b].c"),
		MustCompile("_*.a[b].c"), // collapses onto query 0
		MustCompile("_*.c").Limited(2),
		MustCompile(`_*.a[@k="1"].c`),
		MustCompile("a.b"),
		MustCompile(`c[@x="1" and @x="2"]`), // pruned
	}
	docs := []string{
		paperDoc,
		`<r><a k="1"><b/><c/></a><a k="2"><c/><b/></a><a><c/></a></r>`,
		`<a><c/></a>`,
		paperDoc,
		`<a><b/><a><b/><c/><c/></a><c/></a>`,
	}
	var hits []engineHit
	reused := NewSet(queries, func(qi int, m Match) {
		hits = append(hits, engineHit{qi, m.Index, m.Name})
	}, Merged())
	for di, doc := range docs {
		hits = nil
		if err := reused.Evaluate(strings.NewReader(doc)); err != nil {
			t.Fatalf("doc %d: %v", di, err)
		}
		got, counts := perQuery(len(queries), hits), reused.Counts()
		wantHits, wantCounts := runSetEngine(t, queries, doc, Merged())
		want := perQuery(len(queries), wantHits)
		for qi := range queries {
			if counts[qi] != wantCounts[qi] {
				t.Errorf("doc %d query %d: count %d, fresh set %d", di, qi, counts[qi], wantCounts[qi])
			}
			if len(got[qi]) != len(want[qi]) {
				t.Errorf("doc %d query %d: %v, fresh set %v", di, qi, got[qi], want[qi])
				continue
			}
			for j := range want[qi] {
				if got[qi][j] != want[qi][j] {
					t.Errorf("doc %d query %d: %v, fresh set %v", di, qi, got[qi], want[qi])
					break
				}
			}
		}
	}
}
