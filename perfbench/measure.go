package main

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// Host normalization. On a shared host the same pass alternates between
// fast and slow phases lasting seconds, so raw medians drift between runs
// of identical code. The benchmark therefore brackets the program's timed
// units with reference passes: encoding/xml Decoder.RawToken over the
// workload's own bytes, stdlib code that no change to this repository can
// edit. A unit's host factor h is the mean of its two neighbouring
// reference times ÷ the nominal reference time the workload fixes; times
// are reported as raw ÷ h and rates as raw × h, in natural units at
// nominal host speed.

// refPass decodes corpus with RawToken while the program is quiescent: a GC
// runs before, so the program's garbage is not collected on the reference's
// clock, and after, so the reference's garbage is not collected on the next
// unit's. The corpus is split across threads decoders running at once, for
// units that keep every CPU busy; the returned time is the wall time times
// threads, the single-decoder time on an uncontended host.
func refPass(corpus []byte, threads int) (time.Duration, error) {
	parts := make([][]byte, 0, threads)
	for rest := corpus; len(rest) > 0; {
		cut := len(rest)
		if left := threads - len(parts); left > 1 {
			if i := bytes.IndexByte(rest[len(rest)/left:], '\n'); i >= 0 {
				cut = len(rest)/left + i + 1
			}
		}
		parts, rest = append(parts, rest[:cut]), rest[cut:]
	}
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	runtime.GC()
	start := time.Now()
	for k, part := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := xml.NewDecoder(bytes.NewReader(part))
			var err error
			for err == nil {
				_, err = d.RawToken()
			}
			errs[k] = err
		}()
	}
	wg.Wait()
	elapsed := time.Since(start) * time.Duration(threads)
	runtime.GC()
	for _, err := range errs {
		if !errors.Is(err, io.EOF) {
			return 0, fmt.Errorf("reference pass: %w", err)
		}
	}
	return elapsed, nil
}

// refCorpus cycles data up to about n bytes, cut after a newline so the
// decoder never sees a truncated tag (every generated record ends in one).
func refCorpus(data []byte, n int) []byte {
	out := make([]byte, 0, n+len(data))
	for len(out) < n {
		out = append(out, data...)
	}
	if i := bytes.LastIndexByte(out[:n], '\n'); i > 0 {
		out = out[:i+1]
	}
	return out
}

// sample is one timed unit or operation with the host factor of its
// surrounding reference passes.
type sample struct {
	raw float64 // seconds
	h   float64
}

func (s sample) norm() float64 { return s.raw / s.h }

// quantile is the linear-interpolation quantile of xs (0 ≤ q ≤ 1).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// memSamples are the runtime counters the memory metrics use.
var memSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/live:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}

func readMemAll() (allocs, live, cycles uint64) {
	s := make([]metrics.Sample, len(memSamples))
	copy(s, memSamples)
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()
}

func readMem() (allocs, live uint64) {
	allocs, live, _ = readMemAll()
	return allocs, live
}

// heapWatch records the live heap at the end of every GC cycle: a sentinel
// object with a finalizer re-arms itself each cycle, so every mark the
// runtime completes is seen, not only the last one before an operation
// ends. It lives until the process exits.
type heapWatch struct {
	mu      sync.Mutex
	samples map[uint64]uint64 // GC cycle → live bytes after its mark
	seen    uint64            // the latest cycle recorded
}

type sentinel struct{ _ [32]byte }

func newHeapWatch() *heapWatch {
	w := &heapWatch{samples: map[uint64]uint64{}}
	w.arm()
	return w
}

func (w *heapWatch) arm() {
	runtime.SetFinalizer(&sentinel{}, func(*sentinel) {
		_, live, cycle := readMemAll()
		w.mu.Lock()
		w.samples[cycle] = live
		w.seen = max(w.seen, cycle)
		w.mu.Unlock()
		w.arm()
	})
}

// peak returns the largest live heap of the cycles after `after` up to and
// including `through`, waiting briefly for the finalizer of the last one;
// it returns 0 when no cycle in the window was recorded.
func (w *heapWatch) peak(after, through uint64) uint64 {
	for deadline := time.Now().Add(20 * time.Millisecond); time.Now().Before(deadline); {
		w.mu.Lock()
		seen := w.seen
		w.mu.Unlock()
		if seen >= through {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	var p uint64
	for c, live := range w.samples {
		if c > after && c <= through {
			p = max(p, live)
		}
		delete(w.samples, c)
	}
	return p
}
