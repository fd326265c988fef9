// Package spexnet implements the SPEX evaluation model of the paper (§III):
// a regular path expression with qualifiers is translated — in time linear in
// the expression size (Lemma V.1) — into a single-source single-sink DAG of
// pushdown transducers, and the XML stream is pushed through the network one
// document message at a time. Result fragments leave the output transducer
// progressively, in document order, buffered only while their membership in
// the result is undetermined (§III.8).
package spexnet

import (
	"repro/internal/cond"
	"repro/internal/xmlstream"
)

// MsgKind classifies messages exchanged between SPEX transducers
// (Definition 2 of the paper).
type MsgKind uint8

const (
	// MsgDoc is a document message: an element or document boundary event
	// (or character data, which rides along unmodified).
	MsgDoc MsgKind = iota
	// MsgActivation is an activation message [f]: it arms the receiving
	// transducer with condition formula f for the document message that
	// immediately follows.
	MsgActivation
	// MsgDet is a condition determination message. The paper's {c,true}
	// is Det{Var: c, Formula: cond.True()}; the paper's {c,false}, sent
	// by the variable-creator when an instance's scope closes, is
	// Det{Var: c, Final: true}. A witness Formula carrying an undetermined
	// formula generalizes {c,true} to nested qualifiers: the variable is
	// satisfied as soon as the witness formula is (see DESIGN.md §2).
	MsgDet
)

// Message is one message on a transducer tape. It is 24 bytes: two words of
// pointers and one word holding the kind, the finalization flag and the
// variable, so a hop copies three words (TestMessageSize pins the layout).
//
// A document message does not carry its event: every transducer of a step
// sees the same event (§III.2's one-message-in-flight discipline), so the
// network owns it and messages point at it. The pointer is valid only until
// the step ends — the network overwrites its event slot at the next Step,
// and a transducer that synthesizes events reuses its slots — so anything
// kept across steps must copy the event (the output transducer's buffered
// candidate content does).
type Message struct {
	// Ev is the step's event (MsgDoc only).
	Ev *xmlstream.Event
	// Formula is the activation formula (MsgActivation) or the witness
	// contribution of a determination (MsgDet, unless Final).
	Formula *cond.Formula
	Kind    MsgKind
	// Final marks a determination as the scope-exit finalization from VC.
	Final bool
	// Synthetic marks a document message the network made up rather than
	// read: the attribute node an attribute step selects (attrSelT). It
	// takes its element's document-order index instead of a new one.
	Synthetic bool
	// Var is the determined condition variable (MsgDet).
	Var cond.VarID
}

// docMsg wraps an event as a document message; ev must stay valid until the
// step ends.
func docMsg(ev *xmlstream.Event) Message { return Message{Kind: MsgDoc, Ev: ev} }

// actMsg wraps a formula as an activation message.
func actMsg(f *cond.Formula) Message { return Message{Kind: MsgActivation, Formula: f} }

// detMsg is the determination {v, w}: variable v is satisfied as soon as the
// witness formula w is.
func detMsg(v cond.VarID, w *cond.Formula) Message {
	return Message{Kind: MsgDet, Var: v, Formula: w}
}

// finalMsg is the scope-exit finalization of variable v, the paper's {v,false}.
func finalMsg(v cond.VarID) Message { return Message{Kind: MsgDet, Var: v, Final: true} }

// String renders the message in the paper's notation.
func (m Message) String() string {
	switch m.Kind {
	case MsgDoc:
		return m.Ev.String()
	case MsgActivation:
		return "[" + m.Formula.String() + "]"
	case MsgDet:
		if m.Final {
			return "{" + cond.Var(m.Var).String() + ",close}"
		}
		return "{" + cond.Var(m.Var).String() + "," + m.Formula.String() + "}"
	default:
		return "?"
	}
}
