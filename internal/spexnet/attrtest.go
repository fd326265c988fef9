package spexnet

import (
	"repro/internal/cond"
	"repro/internal/rpeq"
	"repro/internal/xmlstream"
)

// attrTestT is the attribute-test transducer AT[pred] backing the path
// self-filter rpeq.AttrTest: an armed start message passes the filter iff the
// element's attributes satisfy pred. The start message carries the complete
// attribute list, so — unlike the text test, which must wait for the end
// message — the decision falls at the very message that opens the candidate:
// the activation is re-emitted (or dropped) before the start message is
// forwarded, and downstream transducers never learn of filtered-out nodes.
//
// Memory: one pending formula; no stack. The test is constant-memory and
// adds nothing to the depth bound of Lemma V.2.
type attrTestT struct {
	pred rpeq.AttrExpr
	cfg  *netConfig

	pending *cond.Formula
	st      StackStats
}

func newAttrTest(pred rpeq.AttrExpr, cfg *netConfig) *attrTestT {
	return &attrTestT{pred: pred, cfg: cfg}
}

func (t *attrTestT) name() string { return "AT[" + t.pred.String() + "]" }

func (t *attrTestT) stackStats() StackStats { return t.st }

func (t *attrTestT) feed(_ int, m *Message, out *emitter) {
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
			if t.pending != nil {
				// The document root <$> carries no attributes, so a
				// top-level attribute filter never selects it.
				if t.pred.Eval(func(name string) (string, bool) { return ev.Attr(name) }) {
					out.emit(actMsg(t.pending))
				}
				t.pending = nil
			}
			out.emit(*m)
		case isEnd(ev):
			t.pending = nil
			out.emit(*m)
		default: // text
			out.emit(*m)
		}
	}
}

// attrSelT is the attribute-selection transducer AS(@name) backing the
// terminal attribute step rpeq.AttrStep: for each armed start message whose
// element carries the attribute, the selected answer is the attribute node
// itself. Attribute nodes have no representation in the document stream, so
// the transducer synthesizes one — a balanced element triple
//
//	<@name> value </@name>
//
// emitted, with its activation, before the real start message. The attribute
// step is restricted to the final step of a query (validated at parse time),
// so the only reader of this tape is the output transducer: the synthetic
// messages never cross a join and the one-document-message-per-step
// discipline holds everywhere else in the network. A synthetic attribute node
// takes its element's document-order index (it orders with its element, as
// in the DOM baselines) and consumes none of its own.
type attrSelT struct {
	attr string
	cfg  *netConfig

	pending *cond.Formula
	// syn is the synthesized node <@name> value </@name>: one slot per
	// message, reused every step. The messages pointing here live only
	// until the step ends (see Message), so the slots need no fresh
	// allocation per emit; the value slot's Data is rewritten each time.
	syn [3]xmlstream.Event
	st  StackStats
}

func newAttrSel(attr string, cfg *netConfig) *attrSelT {
	label := "@" + attr
	return &attrSelT{attr: attr, cfg: cfg, syn: [3]xmlstream.Event{
		xmlstream.Start(label), xmlstream.Chars(""), xmlstream.End(label),
	}}
}

// synMsg wraps a synthesized event as a document message.
func synMsg(ev *xmlstream.Event) Message { return Message{Kind: MsgDoc, Ev: ev, Synthetic: true} }

func (t *attrSelT) name() string { return "AS(@" + t.attr + ")" }

func (t *attrSelT) stackStats() StackStats { return t.st }

func (t *attrSelT) feed(_ int, m *Message, out *emitter) {
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
			if t.pending != nil {
				if v, ok := ev.Attr(t.attr); ok {
					out.emit(actMsg(t.pending))
					out.emit(synMsg(&t.syn[0]))
					if v != "" {
						t.syn[1].Data = v
						out.emit(synMsg(&t.syn[1]))
					}
					out.emit(synMsg(&t.syn[2]))
				}
				t.pending = nil
			}
			out.emit(*m)
		case isEnd(ev):
			t.pending = nil
			out.emit(*m)
		default: // text
			out.emit(*m)
		}
	}
}
