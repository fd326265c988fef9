package spexnet

import (
	"repro/internal/cond"
	"repro/internal/obs"
	"repro/internal/xmlstream"
)

// emitFn delivers a message to one output port of a transducer. All
// transducers have a single output port (port 0) except the split, which
// also writes port 1, and the fan-out junction.
type emitFn func(port int, m Message)

// emitter is a transducer's output: where its emitted messages go. A node
// of an untraced network holds direct handles on its output tapes, and emit
// appends to the tape inline with no call; a traced network's nodes go
// through the port-indexed closure fn, which records each message first.
type emitter struct {
	tape  *[]Message   // port 0's tape (untraced)
	tapes []*[]Message // every port's tape (untraced)
	fn    emitFn
}

// emit delivers m to port 0, the only output port of every transducer but
// the split and fan-out junctions.
func (e *emitter) emit(m Message) {
	if e.fn != nil {
		e.fn(0, m)
		return
	}
	*e.tape = append(*e.tape, m)
}

// multicast delivers every message of msgs to each of the first ports
// output ports. Untraced, it copies the run tape by tape (element by
// element: a step's run is a message or three, too short for a bulk copy to
// pay); a closure gets each message on every port in turn, so traces list a
// junction's emissions in the order per-message forwarding produces.
func (e *emitter) multicast(msgs []Message, ports int) {
	if e.fn == nil {
		for _, t := range e.tapes[:ports] {
			for _, m := range msgs {
				*t = append(*t, m)
			}
		}
		return
	}
	for _, m := range msgs {
		for p := 0; p < ports; p++ {
			e.fn(p, m)
		}
	}
}

// transducer is one node of a SPEX network. It consumes its input in one of
// two ways: message by message (msgFeeder), or a whole step's input tapes at
// once (stepReader). The runner guarantees the paper's discipline: exactly
// one document message is in flight at a time, and all messages belonging
// to that step are delivered before the next step begins.
type transducer interface {
	name() string
	// stackStats returns the current and maximum depth-stack size and the
	// maximum condition-formula size handled, for the §V experiments.
	stackStats() StackStats
}

// msgFeeder is a transducer fed one message at a time. feed processes a
// single message arriving on the given input port and emits resulting
// messages in order.
//
// The message is passed by pointer into the runner's tape storage and is
// valid only for the duration of the call: implementations forward it as
// out.emit(*m) — a three-word copy — and must copy (*m) if they keep it. A
// document message's event pointer is valid until the step ends (see
// Message), so state kept across steps copies the event.
type msgFeeder interface {
	feed(input int, m *Message, out *emitter)
}

// stepReader is a transducer that reads a step's input tapes whole, in port
// order, once every producer has written them (all producers precede it in
// topological order): the join, which orders its output by the position of
// the document message on both branches, and the split and fan-out
// junctions, which copy their input tape wholesale. The tapes are valid for
// the duration of the call.
type stepReader interface {
	readStep(ins []*[]Message, out *emitter)
}

// StackStats reports per-transducer resource usage.
type StackStats struct {
	Cur        int // current depth/condition stack entries
	MaxStack   int // maximum depth/condition stack entries
	MaxFormula int // maximum formula size σ seen
}

func (s *StackStats) noteStack(n int) {
	if n > s.MaxStack {
		s.MaxStack = n
	}
}

func (s *StackStats) noteFormula(f *cond.Formula) {
	if f != nil && f.Size() > s.MaxFormula {
		s.MaxFormula = f.Size()
	}
}

// or combines activation formulas, honouring the network's normalization
// setting (the Remark V.1 ablation).
func (n *netConfig) or(a, b *cond.Formula) *cond.Formula {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	var f *cond.Formula
	if n.rawFormulas {
		f = cond.RawOr(a, b)
	} else {
		f = cond.Or(a, b)
	}
	if n.gov != nil {
		n.checkFormula(f)
	}
	return f
}

// and combines formulas by conjunction under the same setting.
func (n *netConfig) and(a, b *cond.Formula) *cond.Formula {
	var f *cond.Formula
	if n.rawFormulas {
		f = cond.RawAnd(a, b)
	} else {
		f = cond.And(a, b)
	}
	if n.gov != nil {
		n.checkFormula(f)
	}
	return f
}

// netConfig carries evaluation-time options shared by all transducers of a
// network instance.
type netConfig struct {
	rawFormulas bool // disable duplicate elimination (ablation)
	// retainVars disables condition-variable retirement and id reuse.
	// The core constructs guarantee that nothing mentions a variable
	// after its scope-exit finalization, which lets the sink drop
	// resolution records and the pool recycle ids (bounded memory on
	// unbounded streams). The following/preceding extension breaks that
	// guarantee — a following-scope formula outlives the qualifier scopes
	// it mentions — so networks containing those axes retain records for
	// the whole evaluation.
	retainVars bool
	// symtab is the network's symbol table: label tests are compiled into
	// symbols of this table, and Step resolves events arriving with a zero
	// Sym against it. Never nil.
	symtab *xmlstream.Symtab
	// gov is the resource-governor runtime; nil when no caps are
	// configured, which is the zero-overhead default (every hook is a
	// single pointer test).
	gov *govern
	// detSinks counts the network's sinks whose answer has become fixed
	// (answer limit reached). The config is shared by every sink of the
	// network, so this is the determination signal the network polls:
	// detSinks == len(outs) means nothing in the stream's suffix can
	// change the reported answers.
	detSinks int
	// sinkMetrics receives the candidate-lifecycle histograms (decision
	// latency, candidate lifetime, stream latency) from every sink of the
	// network. Candidate events are per-sink — not per-event-per-network —
	// so one registry can serve many member networks of a multi-query
	// engine without multiplying counts. Nil disables the histograms
	// (a single pointer test per candidate transition).
	sinkMetrics *obs.Metrics
	// traceID is the stream-scoped trace identifier stamped on every
	// obs.TraceEvent the network's tracer observes; empty when unset.
	traceID string
}

// isStart reports whether the event opens a tree node (element or document
// root).
func isStart(ev *xmlstream.Event) bool {
	return ev.Kind == xmlstream.StartElement || ev.Kind == xmlstream.StartDocument
}

// isEnd reports whether the event closes a tree node.
func isEnd(ev *xmlstream.Event) bool {
	return ev.Kind == xmlstream.EndElement || ev.Kind == xmlstream.EndDocument
}

// labelTest is a compiled label guard: the per-event test every CH, CL, FO
// and PR transducer runs. The wildcard is decided at build time; a concrete
// label compiles to the symbol it interns to in the network's table, so the
// steady-state test is one integer comparison.
type labelTest struct {
	label string
	sym   xmlstream.Sym
	wild  bool
}

// compileLabelTest interns the label against the network's symbol table.
func (n *netConfig) compileLabelTest(label string) labelTest {
	t := labelTest{label: label, wild: label == "_"}
	if !t.wild {
		t.sym = n.symtab.Intern(label)
	}
	return t
}

// matches reports whether a start event is an element matching the test (the
// wildcard matches every element, but never the document root <$>). Events
// reaching a transducer are already resolved against the network's table
// (Network.Step), so the symbol comparison is exact.
func (t labelTest) matches(ev *xmlstream.Event) bool {
	return ev.Kind == xmlstream.StartElement && (t.wild || ev.Sym == t.sym)
}
