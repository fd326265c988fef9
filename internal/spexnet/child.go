package spexnet

import "repro/internal/cond"

// childT is the child transducer CH(l) of §III.3: it selects start messages
// with label l that are direct children of an activating document message.
//
// The paper specifies CH via a depth stack of {m, 1} marks and a condition
// stack of formulas pushed and popped in lockstep (Fig. 2). This
// implementation fuses the two stacks into one slice of per-open-node
// entries, exactly the fusion Theorem IV.2's proof describes: entry k holds
// the condition formula under which children of the k-th open node are to be
// matched, or nil when that level is not a match scope (the paper's 1 mark).
type childT struct {
	label labelTest
	cfg   *netConfig

	// pending accumulates activation formulas received since the last
	// document message; they arm the children of the next start message.
	// Consecutive activations (possible after a join) merge by
	// disjunction, which is what Fig. 2's activated2 transitions achieve
	// with a second condition-stack entry.
	pending *cond.Formula
	// scopes[k] is the match formula for children of the k-th open node
	// (nil when inactive). Bounded by the stream depth d.
	scopes []*cond.Formula

	st StackStats
}

func newChild(label string, cfg *netConfig) *childT {
	return &childT{label: cfg.compileLabelTest(label), cfg: cfg}
}

func (t *childT) name() string { return "CH(" + t.label.label + ")" }

func (t *childT) stackStats() StackStats {
	s := t.st
	s.Cur = len(t.scopes)
	return s
}

func (t *childT) feed(_ int, m *Message, out *emitter) {
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
			// Match: is the parent level an armed scope and the label right?
			if n := len(t.scopes); n > 0 {
				if f := t.scopes[n-1]; f != nil && t.label.matches(ev) {
					out.emit(actMsg(f))
				}
			}
			// Arm the children of this node if an activation preceded it.
			t.scopes = append(t.scopes, t.pending)
			t.pending = nil
			t.st.noteStack(len(t.scopes))
			out.emit(*m)
		case isEnd(ev):
			t.pending = nil
			if n := len(t.scopes); n > 0 {
				t.scopes = t.scopes[:n-1]
			}
			out.emit(*m)
		default: // text
			out.emit(*m)
		}
	}
}
