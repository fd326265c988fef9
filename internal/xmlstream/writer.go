package xmlstream

import (
	"bufio"
	"io"
	"strings"
)

// Writer serializes events back to XML text. It is the inverse of Scanner
// for the feature subset this package models (attributes round-trip; PIs and
// comments do not survive scanning); the output transducer uses it to emit
// result fragments progressively.
type Writer struct {
	w   *bufio.Writer
	err error
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<15)}
}

// WriteEvent serializes one event. StartDocument and EndDocument produce no
// output (they delimit the stream, not the text). Errors are sticky.
func (w *Writer) WriteEvent(ev Event) error {
	if w.err != nil {
		return w.err
	}
	switch ev.Kind {
	case StartElement:
		if len(ev.Attrs) == 0 {
			w.err = w.writeAll("<", ev.Name, ">")
			break
		}
		w.err = w.writeAll("<", ev.Name)
		for _, a := range ev.Attrs {
			if w.err != nil {
				break
			}
			w.err = w.writeAll(" ", a.Name, `="`, EscapeAttr(a.Value), `"`)
		}
		if w.err == nil {
			w.err = w.writeAll(">")
		}
	case EndElement:
		w.err = w.writeAll("</", ev.Name, ">")
	case Text:
		w.err = w.writeAll(EscapeText(ev.Data))
	}
	return w.err
}

func (w *Writer) writeAll(parts ...string) error {
	for _, p := range parts {
		if _, err := w.w.WriteString(p); err != nil {
			return err
		}
	}
	return nil
}

// Flush writes any buffered output to the underlying writer.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.err = w.w.Flush()
	return w.err
}

// EscapeText escapes the characters that are markup-significant in character
// data.
func EscapeText(s string) string {
	if !strings.ContainsAny(s, "<>&") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '<':
			b.WriteString("&lt;")
		case '>':
			b.WriteString("&gt;")
		case '&':
			b.WriteString("&amp;")
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// EscapeAttr escapes the characters that are markup-significant inside a
// double-quoted attribute value.
func EscapeAttr(s string) string {
	if !strings.ContainsAny(s, `<&"`) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '<':
			b.WriteString("&lt;")
		case '&':
			b.WriteString("&amp;")
		case '"':
			b.WriteString("&quot;")
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// serializeBufSize is Serialize's write buffer. The builder is a buffer
// already, so this one only batches the small writes of each event; results
// are serialized one by one, and NewWriter's stream-sized buffer would be
// allocated (and mostly cleared) per answer.
const serializeBufSize = 256

// Serialize renders a sequence of events as an XML string.
func Serialize(events []Event) string {
	var sb strings.Builder
	w := &Writer{w: bufio.NewWriterSize(&sb, serializeBufSize)}
	for _, ev := range events {
		w.WriteEvent(ev)
	}
	w.Flush()
	return sb.String()
}
