package spexnet

import (
	"strings"

	"repro/internal/cond"
	"repro/internal/rpeq"
)

// textCmpT is the text-test transducer TE(op,"v") backing the extended
// qualifier [path op "v"]: it receives the activations of the nodes
// selected by path, accumulates each such node's string value (all
// character data in its subtree), and at the node's end message re-emits
// the activation iff the comparison holds — from where the ordinary
// variable-filter/-determinant pair witnesses the qualifier instance.
// Because the test decides at the end message, the variable-creator's
// scope-exit finalization (which travels after end messages) still arrives
// afterwards, preserving first-determination-wins.
//
// Memory: one text buffer per armed open node — bounded by the text of the
// candidate subtrees, the price of a value test on streams.
type textCmpT struct {
	op    rpeq.TextOp
	value string
	cfg   *netConfig

	pending *cond.Formula
	scopes  []*textScope // parallel to open nodes; nil when not armed
	st      StackStats
}

type textScope struct {
	f   *cond.Formula
	buf strings.Builder
}

func newTextCmp(op rpeq.TextOp, value string, cfg *netConfig) *textCmpT {
	return &textCmpT{op: op, value: value, cfg: cfg}
}

func (t *textCmpT) name() string { return "TE(" + t.op.String() + ")" }

func (t *textCmpT) stackStats() StackStats {
	s := t.st
	s.Cur = len(t.scopes)
	return s
}

func (t *textCmpT) feed(_ int, m *Message, out *emitter) {
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
			var s *textScope
			if t.pending != nil {
				s = &textScope{f: t.pending}
				t.pending = nil
			}
			t.scopes = append(t.scopes, s)
			t.st.noteStack(len(t.scopes))
			out.emit(*m)
		case isEnd(ev):
			t.pending = nil
			if n := len(t.scopes); n > 0 {
				if s := t.scopes[n-1]; s != nil && t.op.Holds(s.buf.String(), t.value) {
					out.emit(actMsg(s.f))
				}
				t.scopes = t.scopes[:n-1]
			}
			out.emit(*m)
		default: // text: accumulate into every armed scope
			for _, s := range t.scopes {
				if s != nil {
					s.buf.WriteString(ev.Data)
				}
			}
			out.emit(*m)
		}
	}
}
