package spexnet

import (
	"testing"
	"unsafe"

	"repro/internal/cond"
	"repro/internal/xmlstream"
)

// feedAll drives a transducer with a message sequence and collects its
// port-0 output (port 1 for the second return value, used by split). A step
// reader gets the whole sequence as one tape.
func feedAll(t transducer, input int, msgs []Message) (port0, port1 []Message) {
	out := &emitter{fn: func(port int, m Message) {
		if port == 0 {
			port0 = append(port0, m)
		} else {
			port1 = append(port1, m)
		}
	}}
	if r, ok := t.(stepReader); ok {
		r.readStep([]*[]Message{&msgs}, out)
		return port0, port1
	}
	for i := range msgs {
		t.(msgFeeder).feed(input, &msgs[i], out)
	}
	return port0, port1
}

func msgs(evs ...Message) []Message { return evs }

// ev builds a document message over a fresh event, its label resolved
// against testCfg's table as Network.Step would.
func ev(e xmlstream.Event) Message {
	if e.Name != "" {
		e.Sym = testCfg.symtab.Intern(e.Name)
	}
	return docMsg(&e)
}

func start(name string) Message { return ev(xmlstream.Start(name)) }
func end(name string) Message   { return ev(xmlstream.End(name)) }
func startDoc() Message         { return ev(xmlstream.Event{Kind: xmlstream.StartDocument}) }
func endDoc() Message           { return ev(xmlstream.Event{Kind: xmlstream.EndDocument}) }

func render(ms []Message) string {
	out := ""
	for i, m := range ms {
		if i > 0 {
			out += " "
		}
		out += m.String()
	}
	return out
}

var testCfg = &netConfig{symtab: xmlstream.NewSymtab()}

// TestChildTransducerDirect exercises CH(l) at the message level: Example
// III.1's T1 in isolation.
func TestChildTransducerDirect(t *testing.T) {
	ch := newChild("a", testCfg)
	out, _ := feedAll(ch, 0, msgs(
		actMsg(cond.True()), startDoc(),
		start("a"), // matched: child of the activated <$>
		start("a"), // not matched: grandchild
		end("a"),
		end("a"),
		start("b"), // wrong label
		end("b"),
		endDoc(),
	))
	want := "<$> [true] <a> <a> </a> </a> <b> </b> </$>"
	if render(out) != want {
		t.Fatalf("got  %s\nwant %s", render(out), want)
	}
	if st := ch.stackStats(); st.MaxStack != 3 {
		t.Errorf("MaxStack: %d, want 3", st.MaxStack)
	}
}

// TestChildTransducerMergesActivations: two activations before one start
// merge by disjunction (Fig. 2's activated2 handling).
func TestChildTransducerMergesActivations(t *testing.T) {
	ch := newChild("a", testCfg)
	v1, v2 := cond.Var(1), cond.Var(2)
	out, _ := feedAll(ch, 0, msgs(
		actMsg(v1), actMsg(v2), start("x"),
		start("a"), end("a"),
		end("x"),
	))
	// The match formula is v1∨v2.
	found := false
	for _, m := range out {
		if m.Kind == MsgActivation {
			found = true
			if m.Formula.String() != "v1∨v2" {
				t.Fatalf("formula: %s", m.Formula)
			}
		}
	}
	if !found {
		t.Fatal("no activation emitted")
	}
}

// TestClosureTransducerChain checks the e-mark behaviour of Fig. 3
// transition 8: a non-matching element suspends the scope.
func TestClosureTransducerChain(t *testing.T) {
	cl := newClosure("a", testCfg)
	out, _ := feedAll(cl, 0, msgs(
		actMsg(cond.True()), start("r"),
		start("a"), // in scope: matched
		start("x"), // suspends
		start("a"), // NOT matched (below x)
		end("a"),
		end("x"),
		start("a"), // matched again (chain resumes below first a)
		end("a"),
		end("a"),
		end("r"),
	))
	var matches int
	for _, m := range out {
		if m.Kind == MsgActivation {
			matches++
		}
	}
	if matches != 2 {
		t.Fatalf("matched %d times, want 2:\n%s", matches, render(out))
	}
}

// TestVCTransducerLifecycle: variable creation, conjunction and scope-exit
// finalization with id recycling.
func TestVCTransducerLifecycle(t *testing.T) {
	pool := cond.NewPool()
	q := pool.DeclareQualifier(nil)
	vc := newVC(q, pool, testCfg)
	out, _ := feedAll(vc, 0, msgs(
		actMsg(cond.True()), start("a"),
		end("a"),
		actMsg(cond.True()), start("b"),
		end("b"),
	))
	// Finalization travels after the end message (see vcT.feed).
	want := "[v0] <a> </a> {v0,close} [v0] <b> </b> {v0,close}"
	if render(out) != want {
		t.Fatalf("got  %s\nwant %s", render(out), want)
	}
	// The id was recycled between the instances.
	if pool.Allocated() != 1 {
		t.Fatalf("allocated %d ids, want 1 (recycled)", pool.Allocated())
	}
}

// TestSplitDuplicates: SP forwards everything to both tapes (Fig. 8).
func TestSplitDuplicates(t *testing.T) {
	sp := newSplit()
	p0, p1 := feedAll(sp, 0, msgs(actMsg(cond.True()), start("a"), end("a")))
	if render(p0) != render(p1) || len(p0) != 3 {
		t.Fatalf("p0=%s p1=%s", render(p0), render(p1))
	}
}

// TestJoinANDGate: the join reads the whole step from both branches, then
// forwards each document message once with the non-document messages of
// both branches kept on their side of it (Fig. 9), deduplicating identical
// determination messages that arrived via both branches of a split.
func TestJoinANDGate(t *testing.T) {
	jo := newJoin()
	var out []Message
	emit := &emitter{fn: func(_ int, m Message) { out = append(out, m) }}
	det := Message{Kind: MsgDet, Var: 7, Final: true}
	act, sa := actMsg(cond.Var(1)), start("a")
	// Left branch delivers an activation + doc + trailing det, right
	// branch the same det after its doc copy.
	left, right := msgs(act, sa, det), msgs(sa, det)
	jo.readStep([]*[]Message{&left, &right}, emit)
	want := "[v1] <a> {v7,close}"
	if render(out) != want {
		t.Fatalf("got  %s\nwant %s", render(out), want)
	}
	// The dedupe scratch resets for the next step.
	ea := end("a")
	left, right = msgs(ea, det), msgs(ea, det)
	out = nil
	jo.readStep([]*[]Message{&left, &right}, emit)
	if render(out) != "</a> {v7,close}" {
		t.Fatalf("second step: %s", render(out))
	}
}

// TestUnionMergesPerDocMessage: UN merges the activations preceding one
// document message into their disjunction (Fig. 10).
func TestUnionMergesPerDocMessage(t *testing.T) {
	un := newUnion(testCfg)
	out, _ := feedAll(un, 0, msgs(
		actMsg(cond.Var(1)), actMsg(cond.Var(2)), start("a"),
		end("a"),
		actMsg(cond.Var(3)), start("b"),
	))
	want := "[v1∨v2] <a> </a> [v3] <b>"
	if render(out) != want {
		t.Fatalf("got  %s\nwant %s", render(out), want)
	}
}

// TestVFRestrictsFormulas: VF(q+) keeps only the qualifier's variables;
// VF(q-) drops exactly those.
func TestVFRestrictsFormulas(t *testing.T) {
	pool := cond.NewPool()
	q1 := pool.DeclareQualifier(nil)
	q2 := pool.DeclareQualifier(nil)
	v1 := pool.Fresh(q1)
	v2 := pool.Fresh(q2)
	f := cond.And(cond.Var(v1), cond.Var(v2))

	plus := newVF(q1, pool, true)
	out, _ := feedAll(plus, 0, msgs(actMsg(f)))
	if len(out) != 1 || out[0].Formula.String() != "v0" {
		t.Fatalf("VF(q+): %s", render(out))
	}

	minus := newVF(q1, pool, false)
	out, _ = feedAll(minus, 0, msgs(actMsg(f)))
	if len(out) != 1 || out[0].Formula.String() != "v1" {
		t.Fatalf("VF(q-): %s", render(out))
	}
}

// TestVDEmitsWitnesses: VD turns activations into determination messages,
// one per variable of its qualifier, consuming the activation.
func TestVDEmitsWitnesses(t *testing.T) {
	pool := cond.NewPool()
	q := pool.DeclareQualifier(nil)
	v1 := pool.Fresh(q)
	v2 := pool.Fresh(q)
	vd := newVD(q, pool, testCfg)
	out, _ := feedAll(vd, 0, msgs(
		actMsg(cond.Or(cond.Var(v1), cond.Var(v2))),
		start("x"),
	))
	want := "{v0,true} {v1,true} <x>"
	if render(out) != want {
		t.Fatalf("got  %s\nwant %s", render(out), want)
	}
}

// TestVDNestedWitness: with nested qualifiers, the witness carries the
// residual condition of the inner variables.
func TestVDNestedWitness(t *testing.T) {
	pool := cond.NewPool()
	inner := pool.DeclareQualifier(nil)
	outer := pool.DeclareQualifier([]cond.QualID{inner})
	vi := pool.Fresh(inner)
	vo := pool.Fresh(outer)
	vd := newVD(outer, pool, testCfg)
	out, _ := feedAll(vd, 0, msgs(actMsg(cond.And(cond.Var(vo), cond.Var(vi)))))
	if len(out) != 1 {
		t.Fatalf("got %s", render(out))
	}
	m := out[0]
	if m.Kind != MsgDet || m.Var != vo || m.Formula.String() != "v0" {
		t.Fatalf("got %s (witness %s)", m, m.Formula)
	}
}

// TestMessageSize pins the slim message layout: every hop of every step
// copies a Message, so it must stay within four words (it is three: the
// event pointer, the formula, and kind/flags/variable packed in one word).
func TestMessageSize(t *testing.T) {
	if size := unsafe.Sizeof(Message{}); size > 32 {
		t.Fatalf("Message is %d bytes, want ≤ 32", size)
	}
}
