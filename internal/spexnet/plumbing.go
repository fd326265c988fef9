package spexnet

import "repro/internal/cond"

// splitT is the split transducer SP of §III.6: every received message is
// forwarded to both output tapes.
type splitT struct{ st StackStats }

func newSplit() *splitT { return &splitT{} }

func (t *splitT) name() string { return "SP" }

func (t *splitT) stackStats() StackStats { return t.st }

func (t *splitT) readStep(ins []*[]Message, out *emitter) {
	out.multicast(*ins[0], 2)
}

// joinT is the join transducer JO of §III.6: an AND-gate on document
// messages. Both branches of a split deliver each document message exactly
// once per step (every transducer forwards the document stream), so the
// join forwards the single document message of the step once — this is also
// how "the problem of removing duplicates for the union operation is solved
// by the join transducer". Activation and determination messages pass
// through, merged from both branches while keeping their position relative
// to the step's document message (an activation stays before the element it
// refers to; a trailing scope-exit finalization stays after the end
// message).
//
// joinT reads the whole step from both input tapes at once — its turn comes
// after both branches have delivered everything, since the branches precede
// the join in topological order.
type joinT struct {
	seenDets []Message // scratch for per-step determination dedupe
	st       StackStats
}

func newJoin() *joinT { return &joinT{} }

func (t *joinT) name() string { return "JO" }

// stackStats reports the largest step the join merged; between steps it
// holds nothing.
func (t *joinT) stackStats() StackStats { return t.st }

// readStep merges the step: the non-document messages preceding each
// branch's document message (left branch first), the single document
// message, then the trailing non-document messages. Determination messages
// that reached the join through both branches of the preceding split are
// emitted once — the same duplicate elimination the join performs for
// document messages.
func (t *joinT) readStep(ins []*[]Message, out *emitter) {
	b0, b1 := *ins[0], *ins[1]
	t.st.noteStack(len(b0) + len(b1))
	d0, d1 := docAt(b0), docAt(b1)
	t.emitNonDoc(b0[:d0], out)
	t.emitNonDoc(b1[:d1], out)
	if d0 < len(b0) {
		out.emit(b0[d0])
		d0++
	}
	if d1 < len(b1) {
		d1++
	}
	t.emitNonDoc(b0[d0:], out)
	t.emitNonDoc(b1[d1:], out)
	t.seenDets = t.seenDets[:0]
}

// docAt returns the position of the document message in a branch's step
// buffer, or len(buf) when the branch delivered none.
func docAt(buf []Message) int {
	for i := range buf {
		if buf[i].Kind == MsgDoc {
			return i
		}
	}
	return len(buf)
}

// emitNonDoc forwards a run of non-document messages, dropping
// determinations already forwarded this step. It is small enough to inline,
// so the common empty run costs no call.
func (t *joinT) emitNonDoc(msgs []Message, out *emitter) {
	for i := range msgs {
		t.forward(&msgs[i], out)
	}
}

// forward emits one non-document message unless it is a determination
// already forwarded this step.
func (t *joinT) forward(m *Message, out *emitter) {
	if m.Kind == MsgDet {
		for _, s := range t.seenDets {
			if sameDet(s, *m) {
				return
			}
		}
		t.seenDets = append(t.seenDets, *m)
	}
	out.emit(*m)
}

// sameDet reports whether two determination messages are identical.
func sameDet(a, b Message) bool {
	if a.Var != b.Var || a.Final != b.Final {
		return false
	}
	if (a.Formula == nil) != (b.Formula == nil) {
		return false
	}
	return a.Formula == nil || a.Formula.Key() == b.Formula.Key()
}

// unionT is the union transducer UN of §III.7: a connector that merges the
// activation messages arriving for one document message into a single
// activation carrying their disjunction (Fig. 10). Since the downstream
// transducers of this implementation also merge consecutive activations by
// disjunction, UN is semantically idempotent here, but it is kept so that
// compiled networks have the paper's exact shape and so that single
// activations reach the sink merged.
type unionT struct {
	cfg     *netConfig
	pending *cond.Formula
	st      StackStats
}

func newUnion(cfg *netConfig) *unionT { return &unionT{cfg: cfg} }

func (t *unionT) name() string { return "UN" }

func (t *unionT) stackStats() StackStats {
	s := t.st
	if t.pending != nil {
		s.Cur = 1
	}
	return s
}

func (t *unionT) feed(_ int, m *Message, out *emitter) {
	switch m.Kind {
	case MsgActivation:
		t.pending = t.cfg.or(t.pending, m.Formula)
		t.st.noteFormula(t.pending)
		t.st.noteStack(1)
	case MsgDet:
		out.emit(*m)
	case MsgDoc:
		if t.pending != nil {
			out.emit(actMsg(t.pending))
			t.pending = nil
		}
		out.emit(*m)
	}
}
