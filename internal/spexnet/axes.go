package spexnet

import (
	"repro/internal/cond"
	"repro/internal/xmlstream"
)

// followingT implements the following axis (§I: the prototype "supports
// also other XPath navigational capabilities, i.e. following and
// preceding"): for a context node activated with formula f, every element
// whose start message comes after the context's end message matches with
// formula f. Contexts merge by disjunction; the transducer's state is one
// formula per open node (is it an awaited context?) plus the merged formula
// of contexts already closed — bounded by the depth, like the core
// transducers.
type followingT struct {
	test labelTest
	cfg  *netConfig

	pending *cond.Formula
	// armed[k] is non-nil when the k-th open node is a context whose
	// following-scope opens at its end message.
	armed  []*cond.Formula
	active *cond.Formula
	st     StackStats
}

func newFollowing(test string, cfg *netConfig) *followingT {
	return &followingT{test: cfg.compileLabelTest(test), cfg: cfg}
}

func (t *followingT) name() string { return "FO(" + t.test.label + ")" }

func (t *followingT) stackStats() StackStats {
	s := t.st
	s.Cur = len(t.armed)
	return s
}

func (t *followingT) feed(_ int, m *Message, out *emitter) {
	switch m.Kind {
	case MsgActivation:
		t.pending = t.cfg.or(t.pending, m.Formula)
		t.st.noteFormula(t.pending)
	case MsgDet:
		out.emit(*m)
	case MsgDoc:
		ev := m.Ev
		switch {
		case isStart(ev):
			if t.active != nil && t.test.matches(ev) {
				out.emit(actMsg(t.active))
			}
			t.armed = append(t.armed, t.pending)
			t.pending = nil
			t.st.noteStack(len(t.armed))
			out.emit(*m)
		case isEnd(ev):
			t.pending = nil
			if n := len(t.armed); n > 0 {
				if f := t.armed[n-1]; f != nil {
					t.active = t.cfg.or(t.active, f)
					t.st.noteFormula(t.active)
				}
				t.armed = t.armed[:n-1]
			}
			out.emit(*m)
		default:
			out.emit(*m)
		}
	}
}

// precedingT implements the preceding axis: elements whose end message
// comes before a context's start message. Answers necessarily precede
// their justification in the stream, so the transducer emits every
// test-matching element as a conditional answer with a fresh condition
// variable; a later context start witnesses all candidates already closed
// (with the context's own formula as witness), and the end of the stream
// finalizes whatever was never witnessed — the same future-condition
// machinery qualifiers use. Unwitnessed closed candidates must be retained
// until a context appears, so memory is bounded by the number of candidate
// answers between contexts (the output transducer holds them as
// undetermined candidates anyway).
type precedingT struct {
	test labelTest
	q    cond.QualID
	pool *cond.Pool
	cfg  *netConfig

	pendingCtx *cond.Formula
	// open[k] holds the candidate variable of the k-th open node, if any.
	open []cond.VarID
	has  []bool
	// closed holds candidates whose subtree has ended and whose
	// witnessing context has not arrived (or arrived only conditionally).
	closed []cond.VarID
	st     StackStats
}

func newPreceding(test string, q cond.QualID, pool *cond.Pool, cfg *netConfig) *precedingT {
	return &precedingT{test: cfg.compileLabelTest(test), q: q, pool: pool, cfg: cfg}
}

func (t *precedingT) name() string { return "PR(" + t.test.label + ")" }

func (t *precedingT) stackStats() StackStats {
	s := t.st
	s.Cur = len(t.open) + len(t.closed)
	return s
}

func (t *precedingT) feed(_ int, m *Message, out *emitter) {
	switch m.Kind {
	case MsgActivation:
		t.pendingCtx = t.cfg.or(t.pendingCtx, m.Formula)
		t.st.noteFormula(t.pendingCtx)
	case MsgDet:
		out.emit(*m)
	case MsgDoc:
		ev := m.Ev
		switch {
		case isStart(ev):
			if t.pendingCtx != nil {
				t.creditClosed(t.pendingCtx, out)
				t.pendingCtx = nil
			}
			var v cond.VarID
			matched := t.test.matches(ev)
			if matched {
				v = t.pool.Fresh(t.q)
				out.emit(actMsg(t.pool.Var(v)))
			}
			t.open = append(t.open, v)
			t.has = append(t.has, matched)
			t.st.noteStack(len(t.open) + len(t.closed))
			out.emit(*m)
		case isEnd(ev):
			t.pendingCtx = nil
			if ev.Kind == xmlstream.EndDocument {
				// No context can follow: finalize the stragglers. (No
				// Release: networks with axes retain ids, see netConfig.)
				for _, v := range t.closed {
					out.emit(finalMsg(v))
				}
				t.closed = t.closed[:0]
			}
			if n := len(t.open); n > 0 {
				if t.has[n-1] {
					t.closed = append(t.closed, t.open[n-1])
					t.st.noteStack(len(t.open) + len(t.closed))
				}
				t.open = t.open[:n-1]
				t.has = t.has[:n-1]
			}
			out.emit(*m)
		default:
			out.emit(*m)
		}
	}
}

// creditClosed witnesses every closed candidate with the context formula f.
// Candidates witnessed unconditionally are fully determined and released;
// conditionally witnessed ones stay for later contexts.
func (t *precedingT) creditClosed(f *cond.Formula, out *emitter) {
	if f.IsTrue() {
		for _, v := range t.closed {
			out.emit(detMsg(v, f))
			out.emit(finalMsg(v))
		}
		t.closed = t.closed[:0]
		return
	}
	for _, v := range t.closed {
		out.emit(detMsg(v, f))
	}
}
