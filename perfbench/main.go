// Command perfbench is the repository's benchmark. It generates a seeded
// workload, computes the DOM baseline's answers outside timing, then runs
// the program's public calls in timed units bracketed by host-normalizing
// reference passes for --seconds, checks every answer against the oracle,
// and prints one JSON result line last.
//
//	go run . --workload dmoz-query --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the per-layer passes beside the operations, records spans, and reports
// the per-layer metrics. run.sh builds and runs it from a checkout.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// The memory phase's size: units of about memUnitBytes allocated, at least
// minMemUnits of them and more while memPhaseTime lasts.
const (
	minMemUnits  = 8
	maxMemUnits  = 64
	memPhaseTime = 1500 * time.Millisecond
	memUnitBytes = 2e6
	gcPerUnit    = 100
)

func main() {
	name := flag.String("workload", "", "dmoz-query, extract-serialize, sdi-feed or spexd-ingest")
	seed := flag.Int64("seed", 1, "input generator seed")
	seconds := flag.Float64("seconds", 25, "measured time")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run")
	spanDir := flag.String("span-dir", ".bench_build/spans", "where the traced run writes its spans")
	flag.Parse()
	res, err := run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *spanDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opRecord is one timed operation: its latency to the last answer, and the
// wall time of the call, which the closed loop waits for before the next.
type opRecord struct {
	sample
	wall   float64
	bytes  int
	failed bool
	traced bool
}

// runState accumulates one run's measurements.
type runState struct {
	w         *workload
	heapPeaks []float64 // live-heap growth per memory unit, bytes
	ops       []opRecord
	unitMBs   []float64 // host-normalized MB/s per unit
	setups    []sample
	refMBs    []float64
	hs        []float64
	allocs    uint64
	inBytes   int64
	badAns    int // answer checks that failed, timed or not
	rec       *recorder
	layerCnt  map[int]counters // the layer passes' counts, by operation number
	firstErr  error
}

func run(name string, seed int64, seconds time.Duration, traced bool, spanDir string) (*result, error) {
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	if err := selfTest(firstNonTrivial(w.want)); err != nil {
		return nil, err
	}
	e, err := w.setup()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer e.close()
	s := &runState{w: w, layerCnt: map[int]counters{}}
	if w.check != nil {
		s.wrong(w.check(e))
	}
	// Warm-up: lazy set-up and caches settle before timing, and the first
	// operations' answers are checked like every other.
	warm := w.docs[:min(len(w.docs), 4)]
	a0, _ := readMem()
	for i := range warm {
		if _, err := e.op(i, nil, 0); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		s.wrong(e.verify(i))
	}
	a1, _ := readMem()
	if err := s.memoryPhase(e, float64(a1-a0)/float64(len(warm))); err != nil {
		return nil, err
	}
	corpus := refCorpus(bytes.Join(w.docs, nil), w.refBytes)
	nominal := float64(len(corpus)) / 1e6 / w.nominalRefMBs
	if traced {
		s.rec = newRecorder()
	}
	prev, err := refPass(corpus, w.refThreads)
	if err != nil {
		return nil, err
	}
	s.refMBs = append(s.refMBs, float64(len(corpus))/1e6/prev.Seconds())
	deadline := time.Now().Add(seconds)
	doc := 0
	for time.Now().Before(deadline) {
		opFrom, setupFrom, spanFrom := len(s.ops), len(s.setups), 0
		if s.rec != nil {
			spanFrom = len(s.rec.spans)
		}
		unitWall, unitBytes := 0.0, 0
		firstDoc := doc % len(w.docs)
		for k := 0; k < w.opsPerUnit; k++ {
			i := doc % len(w.docs)
			doc++
			o := s.timedOp(e, i, traced && len(s.ops)%2 == 0)
			unitWall += o.wall
			unitBytes += o.bytes
		}
		if traced {
			id := s.rec.begin("layers", opFrom)
			lc, err := w.layers(e, firstDoc, opFrom, s.rec)
			if err != nil {
				return nil, fmt.Errorf("layer passes: %w", err)
			}
			s.rec.end(id)
			s.layerCnt[opFrom] = lc
		}
		if err := s.timedSetup(); err != nil {
			return nil, err
		}
		ref, err := refPass(corpus, w.refThreads)
		if err != nil {
			return nil, err
		}
		s.refMBs = append(s.refMBs, float64(len(corpus))/1e6/ref.Seconds())
		h := (prev + ref).Seconds() / 2 / nominal
		prev = ref
		s.hs = append(s.hs, h)
		for j := opFrom; j < len(s.ops); j++ {
			s.ops[j].h = h
		}
		for j := setupFrom; j < len(s.setups); j++ {
			s.setups[j].h = h
		}
		s.rec.setHost(spanFrom, h)
		s.unitMBs = append(s.unitMBs, float64(unitBytes)/1e6/(unitWall/h))
	}
	if s.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", s.firstErr)
	}
	if traced {
		if err := s.rec.write(spanDir, fmt.Sprintf("%s-seed%d.json", name, seed)); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		return s.layerResult(e), nil
	}
	return s.endToEnd(seconds), nil
}

// timedOp runs one operation, checks its answers outside the timer and
// records it. A failed operation counts as missing every latency limit.
func (s *runState) timedOp(e env, i int, traceIt bool) opRecord {
	var rec *recorder
	if traceIt {
		rec = s.rec
	}
	seq := len(s.ops)
	id := rec.begin("op", seq)
	a0, _ := readMem()
	start := time.Now()
	d, err := e.op(i, rec, seq)
	wall := time.Since(start)
	a1, _ := readMem()
	rec.end(id)
	if err == nil {
		err = s.wrong(e.verify(i))
	}
	o := opRecord{sample: sample{raw: d.Seconds()}, wall: wall.Seconds(), bytes: len(s.w.docs[i]), failed: err != nil, traced: traceIt}
	if err != nil && s.firstErr == nil {
		s.firstErr = err
	}
	s.allocs += a1 - a0
	s.inBytes += int64(o.bytes)
	s.ops = append(s.ops, o)
	return o
}

// memoryPhase measures the program's live-heap peak over untimed units,
// cycling through the documents. Each unit holds enough operations to
// allocate memUnitBytes, and the GC percent is set so that about gcPerUnit
// collections land in it: the live heap is known only at the end of a
// mark, and a count-mode pass allocates too little to trigger one at the
// default setting. Each unit's peak is taken against the live heap just
// before it, and the phase reports the median over units: the in-process
// server's connection buffers move the process-wide live heap by more than
// one small document's evaluation holds.
func (s *runState) memoryPhase(e env, perOp float64) error {
	ops := max(1, int(memUnitBytes/perOp+0.5))
	runtime.GC()
	_, base := readMem()
	w := newHeapWatch()
	// A GC percent of p lets the heap grow by p% of the live heap between
	// collections.
	defer debug.SetGCPercent(debug.SetGCPercent(max(1, int(100*perOp*float64(ops)/gcPerUnit/float64(base)))))
	doc := 0
	start := time.Now()
	for k := 0; k < minMemUnits || (k < maxMemUnits && time.Since(start) < memPhaseTime); k++ {
		// Two collections empty sync.Pool caches and their victims, so every
		// unit starts from the same state.
		runtime.GC()
		runtime.GC()
		_, base, c0 := readMemAll()
		for j := 0; j < ops; j++ {
			i := doc % len(s.w.docs)
			doc++
			if _, err := e.op(i, nil, 0); err != nil {
				return fmt.Errorf("memory phase: %w", err)
			}
			s.wrong(e.verify(i))
		}
		_, _, c1 := readMemAll()
		s.heapPeaks = append(s.heapPeaks, float64(max(w.peak(c0, c1), base)-base))
	}
	return nil
}

// wrong records an answer check's failure: the run then reports correct
// false.
func (s *runState) wrong(err error) error {
	if err != nil {
		s.badAns++
		if s.firstErr == nil {
			s.firstErr = fmt.Errorf("answers differ from the oracle: %w", err)
		}
	}
	return err
}

// timedSetup times one batch of set-ups; their teardown is not timed.
func (s *runState) timedSetup() error {
	envs := make([]env, 0, s.w.setupsPerUnit)
	runtime.GC()
	start := time.Now()
	for k := 0; k < s.w.setupsPerUnit; k++ {
		e, err := s.w.setup()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		envs = append(envs, e)
	}
	d := time.Since(start)
	for _, e := range envs {
		if err := e.close(); err != nil {
			return fmt.Errorf("set-up teardown: %w", err)
		}
	}
	s.setups = append(s.setups, sample{raw: d.Seconds() / float64(s.w.setupsPerUnit)})
	return nil
}

func (s *runState) counts() (attempted, failed int) {
	for _, o := range s.ops {
		if o.failed {
			failed++
		}
	}
	return len(s.ops), failed
}

// latencies returns operation latencies in ms, host-normalized or raw;
// failures read as the whole run's length, beyond any latency limit.
func (s *runState) latencies(seconds time.Duration, normalized bool) []float64 {
	var out []float64
	for _, o := range s.ops {
		switch {
		case o.failed:
			out = append(out, seconds.Seconds()*1e3)
		case normalized:
			out = append(out, o.norm()*1e3)
		default:
			out = append(out, o.raw*1e3)
		}
	}
	return out
}

func (s *runState) endToEnd(seconds time.Duration) *result {
	attempted, failed := s.counts()
	lat, rawLat := s.latencies(seconds, true), s.latencies(seconds, false)
	var setups, rawSetups, rawUnitMBs []float64
	for _, x := range s.setups {
		setups = append(setups, x.norm())
		rawSetups = append(rawSetups, x.raw)
	}
	for i, mbs := range s.unitMBs {
		rawUnitMBs = append(rawUnitMBs, mbs/s.hs[i])
	}
	m := map[string]metric{
		"throughput_mb_s": {median(s.unitMBs), "MB/s"},
		"latency_p50_ms":  {quantile(lat, 0.5), "ms"},
		"latency_p90_ms":  {quantile(lat, 0.9), "ms"},
		"setup_s":         {median(setups), "s"},
		"heap_peak_mb":    {median(s.heapPeaks) / 1e6, "MB"},
		"alloc_b_per_b":   {float64(s.allocs) / float64(s.inBytes), "B/B"},
		"ok_ratio":        {float64(attempted-failed) / float64(attempted), "ratio"},
	}
	raw := map[string]float64{
		"throughput_mb_s": median(rawUnitMBs),
		"latency_p50_ms":  quantile(rawLat, 0.5),
		"latency_p90_ms":  quantile(rawLat, 0.9),
		"setup_s":         median(rawSetups),
	}
	refMBs := median(s.refMBs)
	fmt.Printf("workload %s: %d operations (%d failed) in %d units, %d set-up units of %d, %d memory units; "+
		"reference %.2f MB/s (nominal %.2f), host factor median %.4f\n",
		s.w.name, attempted, failed, len(s.unitMBs), len(s.setups), s.w.setupsPerUnit, len(s.heapPeaks),
		refMBs, s.w.nominalRefMBs, median(s.hs))
	for _, name := range sortedKeys(m) {
		if r, ok := raw[name]; ok {
			fmt.Printf("  %-16s %14.6g %-5s raw %14.6g  ref %.2f MB/s\n", name, m[name].Value, m[name].Unit, r, refMBs)
		} else {
			fmt.Printf("  %-16s %14.6g %s\n", name, m[name].Value, m[name].Unit)
		}
	}
	fmt.Printf("  latency samples %d, %d beyond p90\n", len(lat), len(lat)-int(0.9*float64(len(lat))))
	if b, err := json.Marshal(raw); err == nil {
		fmt.Printf("raw-metrics %s\n", b)
	}
	return &result{Correct: s.badAns == 0, Attempted: attempted, Failed: failed, Metrics: m}
}

// firstNonTrivial returns the first oracle sequence long enough for the
// self-test to perturb.
func firstNonTrivial(want [][][]int64) []int64 {
	for _, perDoc := range want {
		for _, seq := range perDoc {
			if len(seq) >= 2 {
				return seq
			}
		}
	}
	return nil
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// sortedKeys returns m's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
