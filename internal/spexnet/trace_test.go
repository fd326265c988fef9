package spexnet

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/rpeq"
	"repro/internal/xmlstream"
)

// The stream of Fig. 1 has these steps:
//
//	1:<$> 2:<a> 3:<a> 4:<c> 5:</c> 6:</a> 7:<b> 8:</b> 9:<c> 10:</c> 11:</a> 12:</$>
//
// The trace tests reproduce the observable behaviour the paper walks
// through in Examples III.1 (Fig. 4), III.2 (Fig. 5) and §III.10 (Fig. 13):
// which transducer emits which activation/determination at which step, and
// when candidates are proposed, dropped and output.

type traceRec struct {
	step int64
	node string
	msg  string
}

// runTraced evaluates expr over the Fig. 1 document, returning all traced
// emissions and the answers (with the step at which each was delivered).
func runTraced(t *testing.T, expr string) (recs []traceRec, results []traceRec) {
	t.Helper()
	node := rpeq.MustParse(expr)
	var net *Network
	var err error
	net, err = Build(node, Options{
		Mode: ModeNodes,
		Sink: func(r Result) {
			results = append(results, traceRec{step: -1, node: r.Name, msg: fmt.Sprintf("%s@%d", r.Name, r.Index)})
		},
		Tracer: obs.TracerFunc(func(ev obs.TraceEvent) {
			recs = append(recs, traceRec{step: ev.Step, node: ev.Node, msg: ev.Msg})
			// Results recorded during this step get stamped below.
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Stamp result steps by running event-by-event.
	src := xmlstream.NewScanner(strings.NewReader(`<a><a><c/></a><b/><c/></a>`))
	var step int64
	for {
		ev, err := src.Next()
		if err != nil {
			break
		}
		step++
		before := len(results)
		if err := net.Step(ev); err != nil {
			t.Fatal(err)
		}
		for i := before; i < len(results); i++ {
			results[i].step = step
		}
	}
	if err := net.Finish(); err != nil {
		t.Fatal(err)
	}
	return recs, results
}

// activationsOf filters the trace to activation emissions of one transducer.
func activationsOf(recs []traceRec, node string) []traceRec {
	var out []traceRec
	for _, r := range recs {
		if r.node == node && strings.HasPrefix(r.msg, "[") {
			out = append(out, r)
		}
	}
	return out
}

func detsOf(recs []traceRec, node string) []traceRec {
	var out []traceRec
	for _, r := range recs {
		if r.node == node && strings.HasPrefix(r.msg, "{") {
			out = append(out, r)
		}
	}
	return out
}

func steps(recs []traceRec) []int64 {
	var out []int64
	for _, r := range recs {
		out = append(out, r.step)
	}
	return out
}

func eqSteps(a []int64, b ...int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFigure4ChildTrace reproduces Example III.1: for a.c, T1 = CH(a)
// matches the outer <a> at step 2 (transition 7 of Fig. 4), and T2 = CH(c)
// matches only the second <c>, at step 9 — not the inner <c> at step 4,
// which is at the wrong depth.
func TestFigure4ChildTrace(t *testing.T) {
	recs, results := runTraced(t, "a.c")
	t1 := activationsOf(recs, "CH(a)")
	if !eqSteps(steps(t1), 2) {
		t.Errorf("CH(a) activations at steps %v, want [2]", steps(t1))
	}
	t2 := activationsOf(recs, "CH(c)")
	if !eqSteps(steps(t2), 9) {
		t.Errorf("CH(c) activations at steps %v, want [9]", steps(t2))
	}
	if len(results) != 1 || results[0].msg != "c@5" || results[0].step != 9 {
		t.Errorf("results: %+v, want c@5 delivered at step 9", results)
	}
	// All activations carry the constant-true formula (no qualifiers).
	for _, r := range append(t1, t2...) {
		if r.msg != "[true]" {
			t.Errorf("activation %q should be [true]", r.msg)
		}
	}
}

// TestFigure5ClosureTrace reproduces Example III.2: for a+.c+, T1 = CL(a)
// matches both <a> messages (steps 2, 3; transitions 7 of Fig. 5) and
// T2 = CL(c) matches both <c> messages (steps 4 and 9), the first one due
// to the nested match scope.
func TestFigure5ClosureTrace(t *testing.T) {
	recs, results := runTraced(t, "a+.c+")
	t1 := activationsOf(recs, "CL(a)")
	if !eqSteps(steps(t1), 2, 3) {
		t.Errorf("CL(a) activations at steps %v, want [2 3]", steps(t1))
	}
	t2 := activationsOf(recs, "CL(c)")
	if !eqSteps(steps(t2), 4, 9) {
		t.Errorf("CL(c) activations at steps %v, want [4 9]", steps(t2))
	}
	if len(results) != 2 || results[0].msg != "c@3" || results[1].msg != "c@5" {
		t.Errorf("results: %+v", results)
	}
	// Progressive delivery: each c is delivered at its own start step.
	if results[0].step != 4 || results[1].step != 9 {
		t.Errorf("delivery steps: %d, %d; want 4, 9", results[0].step, results[1].step)
	}
}

// TestFigure13QualifierTrace reproduces §III.10 for _*.a[b].c: the
// variable-creator instantiates co1 (outer <a>, step 2) and co2 (inner <a>,
// step 3); candidate1 = <c@3> (step 4) depends on co2; co2 is invalidated
// when the inner scope closes (step 6, {co2,false}) and candidate1 is
// discarded; <b> satisfies co1 (step 7, {co1,true}); candidate2 = <c@5>
// (step 9) is output directly since its formula is already determined.
func TestFigure13QualifierTrace(t *testing.T) {
	recs, results := runTraced(t, "_*.a[b].c")

	vc := activationsOf(recs, "VC(q)")
	if !eqSteps(steps(vc), 2, 3) {
		t.Fatalf("VC activations at steps %v, want [2 3]", steps(vc))
	}
	// Steps 2 and 3 create the two qualifier instances (co1 = v0,
	// co2 = v1 in allocation order).
	if vc[0].msg != "[v0]" || vc[1].msg != "[v1]" {
		t.Errorf("VC formulas: %q, %q; want [v0], [v1]", vc[0].msg, vc[1].msg)
	}

	// Scope-exit invalidations from VC: inner instance at step 6, outer
	// at step 11 (Fig. 13 shows VC transition 4 at both </a> steps).
	vcDets := detsOf(recs, "VC(q)")
	if !eqSteps(steps(vcDets), 6, 11) {
		t.Errorf("VC determinations at steps %v, want [6 11]", steps(vcDets))
	}
	if vcDets[0].msg != "{v1,close}" {
		t.Errorf("step-6 determination: %q, want {v1,close}", vcDets[0].msg)
	}

	// The witness for co1 is produced by VD when <b> arrives. (VD also
	// forwards the close messages originated by VC; exclude those.)
	var vd []traceRec
	for _, r := range detsOf(recs, "VD") {
		if !strings.Contains(r.msg, ",close}") {
			vd = append(vd, r)
		}
	}
	if !eqSteps(steps(vd), 7) || vd[0].msg != "{v0,true}" {
		t.Errorf("VD determinations: %+v, want {v0,true} at step 7", vd)
	}

	// candidate1 (c@3) is silently discarded; candidate2 (c@5) is output
	// directly at its start step since co1 is already true by then.
	if len(results) != 1 || results[0].msg != "c@5" || results[0].step != 9 {
		t.Errorf("results: %+v, want only c@5 at step 9", results)
	}
}

// TestCompleteExampleResults pins the end-to-end answer of §III.10.
func TestCompleteExampleResults(t *testing.T) {
	expect(t, "_*.a[b].c", paperDoc, "c@5")
}

// TestFigure13CandidateAccounting checks the candidate bookkeeping: two
// candidates are proposed and one is dropped.
func TestFigure13CandidateAccounting(t *testing.T) {
	node := rpeq.MustParse("_*.a[b].c")
	net, err := Build(node, Options{Mode: ModeCount})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := net.Run(xmlstream.NewScanner(strings.NewReader(`<a><a><c/></a><b/><c/></a>`)))
	if err != nil {
		t.Fatal(err)
	}
	out := stats.Output
	if out.Candidates != 2 || out.Dropped != 1 || out.Matches != 1 {
		t.Fatalf("candidates=%d dropped=%d matches=%d; want 2,1,1",
			out.Candidates, out.Dropped, out.Matches)
	}
}

// TestMessageCountsMatchTrace checks the instrumented per-transducer
// message counters, which the tapes' readers keep as a deviation from one
// document message per step, against a tracer that sees every emission,
// and against the per-step message totals.
func TestMessageCountsMatchTrace(t *testing.T) {
	doc := `<a><a><c/></a><b/><c/><a><b/><c>x</c></a></a>`
	traced := map[string]*[3]int64{}
	tr := obs.TracerFunc(func(ev obs.TraceEvent) {
		if traced[ev.Node] == nil {
			traced[ev.Node] = &[3]int64{}
		}
		traced[ev.Node][ev.Kind]++
	})
	for _, q := range []string{"_*.a[b].c", "_*.a[b|c]", "a._*[c]"} {
		clear(traced)
		m := obs.NewMetrics()
		net, err := Build(rpeq.MustParse(q), Options{Mode: ModeCount, Tracer: tr, Metrics: m})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.Run(xmlstream.NewScanner(strings.NewReader(doc))); err != nil {
			t.Fatal(err)
		}
		snap := m.Snapshot()
		counted := map[string]*[3]int64{}
		var in int64
		for _, ts := range snap.Transducers {
			name := ts.Name[strings.IndexByte(ts.Name, ':')+1:]
			if counted[name] == nil {
				counted[name] = &[3]int64{}
			}
			c := counted[name]
			c[obs.KindDoc] += ts.OutDoc
			c[obs.KindActivation] += ts.OutAct
			c[obs.KindDetermination] += ts.OutDet
			in += ts.InDoc + ts.InAct + ts.InDet
		}
		for name, c := range counted {
			want := [3]int64{}
			if tc := traced[name]; tc != nil {
				want = *tc
			}
			if *c != want {
				t.Errorf("%s: %s counted out (doc, act, det) = %v, traced %v", q, name, *c, want)
			}
		}
		if in != snap.StepMessages.Sum {
			t.Errorf("%s: transducers counted %d messages in, steps carried %d", q, in, snap.StepMessages.Sum)
		}
	}
}
