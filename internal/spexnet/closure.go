package spexnet

import "repro/internal/cond"

// closureT is the closure transducer CL(l) of §III.4, implementing the
// positive closure l+: starting from the children of the activating
// document message, it selects chains of l-labeled elements — an l child, an
// l child of an l match, and so on. A non-matching element suspends the
// scope for its subtree (the paper's e mark, Fig. 3 transition 8) and the
// scope resumes when that element closes (transition 4).
//
// Scopes nest: an activation received while matching opens a nested scope
// whose formula is the disjunction of the received and the enclosing
// formulas (Fig. 3 transition 12), normalized so each condition variable
// occurs at most once.
type closureT struct {
	label labelTest
	cfg   *netConfig

	pending *cond.Formula
	// scopes[k] is the formula under which l-labeled children of the k-th
	// open node match (nil = not in scope, the paper's 1/e marks).
	scopes []*cond.Formula

	st StackStats
}

func newClosure(label string, cfg *netConfig) *closureT {
	return &closureT{label: cfg.compileLabelTest(label), cfg: cfg}
}

func (t *closureT) name() string { return "CL(" + t.label.label + ")" }

func (t *closureT) stackStats() StackStats {
	s := t.st
	s.Cur = len(t.scopes)
	return s
}

func (t *closureT) feed(_ int, m *Message, out *emitter) {
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
			var parent *cond.Formula
			if n := len(t.scopes); n > 0 {
				parent = t.scopes[n-1]
			}
			matched := parent != nil && t.label.matches(ev)
			if matched {
				out.emit(actMsg(parent))
			}
			// The scope continues below this node only along l-chains
			// (matched), and a pending activation opens a (possibly
			// nested) scope over this node's subtree.
			var child *cond.Formula
			if matched {
				child = parent
			}
			if t.pending != nil {
				child = t.cfg.or(child, t.pending)
				t.pending = nil
			}
			t.st.noteFormula(child)
			t.scopes = append(t.scopes, child)
			t.st.noteStack(len(t.scopes))
			out.emit(*m)
		case isEnd(ev):
			t.pending = nil
			if n := len(t.scopes); n > 0 {
				t.scopes = t.scopes[:n-1]
			}
			out.emit(*m)
		default:
			out.emit(*m)
		}
	}
}
