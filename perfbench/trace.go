package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// Spans of the traced run. The benchmark records them around its own calls
// into each layer; they are kept in memory and written out when the run
// ends. A span's self time is its duration minus the time its children
// cover.

type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Name   string  `json:"name"`
	Doc    int     `json:"doc"` // number of the operation the span belongs to
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	H      float64 `json:"host_factor"` // filled in when the cycle's closing reference pass ends
}

// recorder collects spans; a nil recorder records nothing, which is how the
// untraced run and the untraced half of the traced run call the same code.
// A span begun while another is open is that span's child.
type recorder struct {
	origin time.Time
	spans  []span
	open   []int
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span for operation doc and returns its id; end closes it.
func (r *recorder) begin(name string, doc int) int {
	if r == nil {
		return 0
	}
	parent := 0
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Doc: doc,
		Start: time.Since(r.origin).Seconds()})
	r.open = append(r.open, len(r.spans))
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].End = time.Since(r.origin).Seconds()
	for i := len(r.open) - 1; i >= 0; i-- {
		if r.open[i] == id {
			r.open = append(r.open[:i], r.open[i+1:]...)
			break
		}
	}
}

// add records a root span whose bounds were measured elsewhere, such as a
// result frame's arrival on the reader goroutine.
func (r *recorder) add(name string, doc int, start, end time.Time) {
	if r != nil {
		r.spans = append(r.spans, span{ID: len(r.spans) + 1, Name: name, Doc: doc,
			Start: start.Sub(r.origin).Seconds(), End: end.Sub(r.origin).Seconds()})
	}
}

// setHost stamps the host factor on every span from index from onwards.
func (r *recorder) setHost(from int, h float64) {
	if r == nil {
		return
	}
	for i := from; i < len(r.spans); i++ {
		r.spans[i].H = h
	}
}

// selfTimes returns, per span name and operation, the host-normalized self
// time in seconds.
func (r *recorder) selfTimes() map[string]map[int]float64 {
	child := make([]float64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent > 0 {
			child[s.Parent-1] += s.End - s.Start
		}
	}
	out := map[string]map[int]float64{}
	for i, s := range r.spans {
		if out[s.Name] == nil {
			out[s.Name] = map[int]float64{}
		}
		out[s.Name][s.Doc] += (s.End - s.Start - child[i]) / s.H
	}
	return out
}

// write saves the spans as JSON under dir.
func (r *recorder) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
