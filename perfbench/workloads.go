package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	spex "repro"
	"repro/internal/core"
	"repro/internal/multi"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/setcompile"
	"repro/internal/spexnet"
	"repro/internal/xmlstream"
)

// env is the state one set-up builds: everything done once before the
// first byte, reused by every operation of the run.
type env interface {
	// op hands document i to the system and returns once its last answer is
	// in the consumer's hands, with the time that took. Spans the operation
	// records itself go to rec under operation number seq.
	op(i int, rec *recorder, seq int) (time.Duration, error)
	// verify compares the last operation's answers with the oracle.
	verify(i int) error
	close() error
}

// workload is one benchmark input set with its set-up, operation, oracle
// and per-layer passes.
type workload struct {
	name  string
	docs  [][]byte
	want  [][][]int64 // per document, per query: the oracle's answer sequence
	setup func() (env, error)
	// setupsPerUnit batches set-ups whose single duration is near the
	// timer's resolution; the reported set-up time is per set-up.
	setupsPerUnit int
	// opsPerUnit is the operations in one timed unit between reference
	// passes; refBytes sizes the reference pass to about the unit's length.
	opsPerUnit int
	refBytes   int
	// refThreads is how many decoders share the reference pass: 2 where the
	// unit keeps both of the host's CPUs busy (client and server
	// goroutines), so contention on either shows in h.
	refThreads int
	// nominalRefMBs is the reference pass speed that defines h = 1.
	nominalRefMBs float64
	// check runs the workload's untimed answer-sequence check where the
	// timed operation does not expose answer indices.
	check func(e env) error
	// layers runs the traced run's per-layer passes over document i; their
	// spans carry seq, the number of the operation they sit beside.
	layers func(e env, i, seq int, rec *recorder) (counters, error)
	// attributed lists the layer self times that partition one operation;
	// the rest of the operation's time is unattributed.
	attributed func(st map[string]float64) float64
}

// counters are per-document counts taken by the layer passes.
type counters map[string]float64

// The nominal reference speeds define h = 1: RawToken's typical MB/s over
// each DMOZ shape on the 2-vCPU host the benchmark was tuned on. They set
// only the scale of normalized figures; comparisons between commits need
// them unchanged.
const (
	nominalStructureMBs = 25
	nominalContentMBs   = 28
)

const (
	dmozQuery    = "_*.Topic[editor].Title"
	extractQuery = "_*.ExternalPage[topic].Description"
	ingestQuery  = "_*.Topic[editor].Title"
	sdiSubs      = 256
)

func newWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "dmoz-query":
		doc := dmozStructure(newRNG(seed, 1), 15000)
		return singleQuery(name, doc, dmozQuery, false)
	case "extract-serialize":
		doc := dmozContent(newRNG(seed, 2), 1100)
		return singleQuery(name, doc, extractQuery, true)
	case "sdi-feed":
		return sdiFeed(seed)
	case "spexd-ingest":
		return spexdIngest(seed)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// oracleFor computes the baseline answers of queries over every document.
func oracleFor(docs [][]byte, queries []string) ([][][]int64, error) {
	want := make([][][]int64, len(docs))
	for i, d := range docs {
		root, err := buildDOM(d)
		if err != nil {
			return nil, err
		}
		if want[i], _, err = answers(root, queries); err != nil {
			return nil, err
		}
	}
	return want, nil
}

// ---- dmoz-query and extract-serialize: one query over one stream ----

type queryEnv struct {
	q       *spex.Query
	doc     []byte
	results bool
	out     bytes.Buffer
	n       int64
	want    []int64
	wantOut []byte
}

func (e *queryEnv) op(int, *recorder, int) (time.Duration, error) {
	start := time.Now()
	var err error
	if e.results {
		e.out.Reset()
		e.n, err = e.q.WriteResults(bytes.NewReader(e.doc), &e.out)
	} else {
		e.n, err = e.q.Count(bytes.NewReader(e.doc))
	}
	return time.Since(start), err
}

func (e *queryEnv) verify(int) error {
	if e.n != int64(len(e.want)) {
		return fmt.Errorf("%d answers, oracle has %d", e.n, len(e.want))
	}
	if e.results && !bytes.Equal(e.out.Bytes(), e.wantOut) {
		return fmt.Errorf("serialized answers differ from the oracle's (%d vs %d bytes, fnv %x vs %x)",
			e.out.Len(), len(e.wantOut), fnv64(e.out.Bytes()), fnv64(e.wantOut))
	}
	return nil
}

func (e *queryEnv) close() error { return nil }

func singleQuery(name string, doc []byte, query string, results bool) (*workload, error) {
	root, err := buildDOM(doc)
	if err != nil {
		return nil, err
	}
	idx, nodes, err := answers(root, []string{query})
	if err != nil {
		return nil, err
	}
	wantOut := serialized(nodes[0])
	w := &workload{
		name:          name,
		docs:          [][]byte{doc},
		want:          [][][]int64{idx},
		setupsPerUnit: 200,
		opsPerUnit:    1,
		refThreads:    1,
	}
	// Either way the reference pass takes about half as long as the unit it
	// brackets: long enough to sample the host's phase, short enough that
	// most of the run measures the program.
	w.refBytes, w.nominalRefMBs = len(doc)/2, nominalStructureMBs
	if results {
		w.refBytes, w.nominalRefMBs = len(doc), nominalContentMBs
	}
	w.setup = func() (env, error) {
		q, err := spex.Compile(query)
		if err != nil {
			return nil, err
		}
		return &queryEnv{q: q, doc: doc, results: results, want: idx[0], wantOut: wantOut}, nil
	}
	// Count and WriteResults return no node indices, so the run checks the
	// ordered sequence once through Matches over the same stream.
	w.check = func(ev env) error {
		e := ev.(*queryEnv)
		var got []int64
		if _, err := e.q.Matches(bytes.NewReader(doc), func(m spex.Match) { got = append(got, m.Index) }); err != nil {
			return err
		}
		return checkSequence(idx[0], got)
	}
	plan, err := core.Prepare(query)
	if err != nil {
		return nil, err
	}
	w.layers = func(ev env, _, seq int, rec *recorder) (counters, error) {
		e := ev.(*queryEnv)
		c := counters{}
		if err := scanPass(doc, results, rec, seq, c); err != nil {
			return nil, err
		}
		if err := feedPass(plan, doc, results, rec, seq, c); err != nil {
			return nil, err
		}
		if results {
			if err := sinkPass(plan, doc, rec, seq); err != nil {
				return nil, err
			}
		}
		// The results path: WriteResults minus Count over the same stream.
		a0, _ := readMem()
		id := rec.begin("spex.count", seq)
		if _, err := e.q.Count(bytes.NewReader(doc)); err != nil {
			return nil, err
		}
		rec.end(id)
		a1, _ := readMem()
		var out bytes.Buffer
		out.Grow(len(wantOut) + len(wantOut)/8)
		a2, _ := readMem()
		id = rec.begin("spex.write_results", seq)
		n, err := e.q.WriteResults(bytes.NewReader(doc), &out)
		if err != nil {
			return nil, err
		}
		rec.end(id)
		a3, _ := readMem()
		c["answers"] = float64(n)
		c["out_bytes"] = float64(out.Len())
		c["results_alloc"] = float64(a3-a2) - float64(a1-a0)
		return c, nil
	}
	w.attributed = func(st map[string]float64) float64 {
		if results {
			return st["xmlstream.scan"] + st["spex.sink_replay"]
		}
		return st["xmlstream.scan"] + st["core.feed"]
	}
	return w, nil
}

// scanPass drains the scanner over doc with the workload's text option:
// the scan layer alone.
func scanPass(doc []byte, text bool, rec *recorder, seq int, c counters) error {
	id := rec.begin("xmlstream.scan", seq)
	sc := xmlstream.NewScanner(bytes.NewReader(doc), xmlstream.WithText(text), xmlstream.WithAttributes(text))
	for {
		_, err := sc.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
	}
	rec.end(id)
	c["events"] = float64(sc.Events())
	return nil
}

// feedPass replays pre-scanned events into a count-mode network: the
// network layer alone.
func feedPass(plan *core.Plan, doc []byte, text bool, rec *recorder, seq int, c counters) error {
	run, err := replay(plan, core.EvalOptions{Mode: spexnet.ModeCount}, doc, text, "core.feed", rec, seq)
	if err != nil {
		return err
	}
	st := run.Stats()
	c["transducers"] = float64(st.Transducers)
	c["max_stack"] = float64(st.MaxStack)
	c["max_formula"] = float64(st.MaxFormula)
	return nil
}

// sinkPass replays the same events into a results-mode network whose sink
// serializes every answer as WriteResults does: the network plus the
// results path, without the scan.
func sinkPass(plan *core.Plan, doc []byte, rec *recorder, seq int) error {
	var out bytes.Buffer
	_, err := replay(plan, core.EvalOptions{Mode: spexnet.ModeSerialize, Sink: func(res spexnet.Result) {
		out.WriteString(xmlstream.Serialize(res.Events))
		out.WriteByte('\n')
	}}, doc, true, "spex.sink_replay", rec, seq)
	return err
}

// replayChunk is the events pre-scanned per replay step. Scanning a whole
// document ahead would keep megabytes of events live, which every GC of
// the replay would then mark.
const replayChunk = 4096

// replay feeds doc's events through a fresh run of plan in one span per
// chunk; each chunk is pre-scanned outside its span. The scanner's views
// point into doc, so events stay valid after the next scan.
func replay(plan *core.Plan, opts core.EvalOptions, doc []byte, text bool, name string, rec *recorder, seq int) (*core.Run, error) {
	run, err := plan.NewRun(opts)
	if err != nil {
		return nil, err
	}
	sc := xmlstream.ScanBytes(doc, xmlstream.WithText(text), xmlstream.WithAttributes(text), xmlstream.WithSymtab(plan.Symtab()))
	events := make([]xmlstream.Event, 0, replayChunk)
	for done := false; !done; {
		events = events[:0]
		for len(events) < replayChunk {
			ev, err := sc.Next()
			if errors.Is(err, io.EOF) {
				done = true
				break
			}
			if err != nil {
				return nil, err
			}
			events = append(events, ev)
		}
		id := rec.begin(name, seq)
		for _, ev := range events {
			if err := run.Feed(ev); err != nil {
				return nil, err
			}
		}
		if done {
			if err := run.Close(); err != nil {
				return nil, err
			}
		}
		rec.end(id)
	}
	return run, nil
}

// ---- sdi-feed: 256 overlapping subscriptions, one merged set ----

type sdiEnv struct {
	set  *spex.Set
	docs [][]byte
	got  [][]int64
	want [][][]int64
}

func (e *sdiEnv) op(i int, _ *recorder, _ int) (time.Duration, error) {
	for q := range e.got {
		e.got[q] = e.got[q][:0]
	}
	start := time.Now()
	err := e.set.Evaluate(bytes.NewReader(e.docs[i]))
	return time.Since(start), err
}

func (e *sdiEnv) verify(i int) error {
	for q, want := range e.want[i] {
		if err := checkSequence(want, e.got[q]); err != nil {
			return fmt.Errorf("subscription %d: %w", q, err)
		}
	}
	return nil
}

func (e *sdiEnv) close() error { return nil }

func sdiFeed(seed int64) (*workload, error) {
	docs := dmozDocs(newRNG(seed, 3), 32, 70)
	queries := sdiQueries(newRNG(seed, 4), sdiSubs)
	want, err := oracleFor(docs, queries)
	if err != nil {
		return nil, err
	}
	w := &workload{
		name:          "sdi-feed",
		docs:          docs,
		want:          want,
		setupsPerUnit: 4,
		opsPerUnit:    1,
		refBytes:      1 << 20,
		refThreads:    1,
		nominalRefMBs: nominalStructureMBs,
	}
	w.setup = func() (env, error) {
		qs := make([]*spex.Query, len(queries))
		for i, q := range queries {
			var err error
			if qs[i], err = spex.Compile(q); err != nil {
				return nil, err
			}
		}
		e := &sdiEnv{docs: docs, got: make([][]int64, len(queries)), want: want}
		e.set = spex.NewSet(qs, func(q int, m spex.Match) { e.got[q] = append(e.got[q], m.Index) }, spex.Merged())
		return e, nil
	}
	subs := make([]multi.Subscription, len(queries))
	exprs := make([]setcompile.Query, len(queries))
	for i, q := range queries {
		plan, err := core.Prepare(q)
		if err != nil {
			return nil, err
		}
		subs[i] = multi.Subscription{Name: strconv.Itoa(i), Plan: plan}
		exprs[i] = setcompile.Query{Name: subs[i].Name, Expr: plan.Expr(), Limit: plan.Limit()}
	}
	w.layers = func(_ env, i, seq int, rec *recorder) (counters, error) {
		c := counters{}
		if err := scanPass(docs[i], false, rec, seq, c); err != nil {
			return nil, err
		}
		id := rec.begin("setcompile.compile", seq)
		prog := setcompile.Compile(exprs)
		rec.end(id)
		id = rec.begin("multi.new_merged_set", seq)
		ms, err := multi.NewMergedSet(subs)
		if err != nil {
			return nil, err
		}
		rec.end(id)
		// A 70-Topic document's events fit in one pre-scanned slice.
		var events []xmlstream.Event
		sc := xmlstream.ScanBytes(docs[i], xmlstream.WithText(false), xmlstream.WithSymtab(ms.Symtab()))
		for {
			ev, err := sc.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return nil, err
			}
			events = append(events, ev)
		}
		id = rec.begin("multi.feed", seq)
		for _, ev := range events {
			if err := ms.Feed(ev); err != nil {
				return nil, err
			}
		}
		if err := ms.Close(); err != nil {
			return nil, err
		}
		rec.end(id)
		c["naive_transducers"] = float64(prog.Stats.NaiveTransducers)
		c["merged_transducers"] = float64(prog.Stats.MergedTransducers)
		c["contained"] = float64(prog.Stats.Contained)
		return c, nil
	}
	w.attributed = func(st map[string]float64) float64 {
		return st["xmlstream.scan"] + st["multi.new_merged_set"] + st["multi.feed"]
	}
	return w, nil
}

// ---- spexd-ingest: an in-process spexd, one channel, one subscription ----

const channelName = "bench"

// arrivals tracks the result stream: which document's frames are expected
// and when each arrived.
type arrivals struct {
	mu    sync.Mutex
	trace string
	want  int
	got   []int64
	last  time.Time
	extra int // frames of no current document, or beyond its answers
	done  chan struct{}
	err   error // why the result stream ended
}

// expect arms the tracker for one document; wantN == 0 needs no frame.
func (a *arrivals) expect(trace string, wantN int) chan struct{} {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.trace, a.want, a.got = trace, wantN, a.got[:0]
	a.done = make(chan struct{})
	if wantN == 0 {
		close(a.done)
	}
	return a.done
}

func (a *arrivals) fail(err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.err = err
}

func (a *arrivals) frame(f server.Frame, at time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if f.Trace != a.trace || len(a.got) >= a.want {
		a.extra++
		return
	}
	a.got = append(a.got, f.Index)
	a.last = at
	if len(a.got) == a.want {
		close(a.done)
	}
}

type spexdEnv struct {
	srv      *server.Server
	hs       *http.Server
	served   chan error
	cl       *client.Client
	ingestTr *http.Transport
	resultTr *http.Transport
	stopRead context.CancelFunc
	readDone chan struct{}
	arr      *arrivals
	docs     [][]byte
	want     [][][]int64
	seq      int
	refused  int
	frames   int
	ingested int
}

func (e *spexdEnv) op(i int, rec *recorder, seq int) (time.Duration, error) {
	e.seq++
	trace := "doc-" + strconv.Itoa(e.seq)
	want := len(e.want[i][0])
	done := e.arr.expect(trace, want)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	_, err := e.cl.IngestWithTrace(ctx, channelName, trace, bytes.NewReader(e.docs[i]))
	responded := time.Now()
	if err != nil {
		var ae *client.APIError
		if errors.As(err, &ae) && (ae.Status == http.StatusTooManyRequests || ae.Status == http.StatusServiceUnavailable) {
			e.refused++
		}
		return responded.Sub(start), err
	}
	select {
	case <-done:
	case <-e.readDone:
		e.arr.mu.Lock()
		defer e.arr.mu.Unlock()
		return time.Since(start), fmt.Errorf("document %s: the result stream ended: %v", trace, e.arr.err)
	case <-ctx.Done():
		return time.Since(start), fmt.Errorf("document %s: result frames missing after the ingest deadline", trace)
	}
	e.arr.mu.Lock()
	last := e.arr.last
	if want == 0 {
		last = responded
	}
	e.frames += len(e.arr.got)
	e.ingested++
	e.arr.mu.Unlock()
	rec.add("server.ingest", seq, start, responded)
	rec.add("server.last_frame", seq, start, last)
	return last.Sub(start), nil
}

func (e *spexdEnv) serverCounts() (frames float64, refused int) {
	return float64(e.frames) / float64(max(e.ingested, 1)), e.refused
}

func (e *spexdEnv) verify(i int) error {
	e.arr.mu.Lock()
	defer e.arr.mu.Unlock()
	if e.arr.extra > 0 {
		return fmt.Errorf("%d result frames beyond the oracle's answers", e.arr.extra)
	}
	return checkSequence(e.want[i][0], e.arr.got)
}

// startSpexd is the spexd-ingest set-up: server, loopback listener,
// subscription and an attached result stream.
func startSpexd(docs [][]byte, want [][][]int64) (*spexdEnv, error) {
	srv, err := server.New(server.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &spexdEnv{
		srv:      srv,
		hs:       &http.Server{Handler: srv.Handler()},
		served:   make(chan error, 1),
		ingestTr: &http.Transport{MaxIdleConnsPerHost: 1},
		resultTr: &http.Transport{},
		arr:      &arrivals{},
		docs:     docs,
		want:     want,
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	e.cl = client.New(base, &http.Client{Transport: e.ingestTr})
	sub, err := e.cl.Subscribe(context.Background(), server.SubscribeRequest{Channel: channelName, Query: ingestQuery})
	if err != nil {
		_ = e.close()
		return nil, err
	}
	// The result stream is attached once its response headers arrive: the
	// server commits them before it waits for frames.
	ctx, stop := context.WithCancel(context.Background())
	e.stopRead = stop
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/subscriptions/"+sub.ID+"/results", nil)
	if err != nil {
		_ = e.close()
		return nil, err
	}
	resp, err := (&http.Client{Transport: e.resultTr}).Do(req)
	if err != nil {
		_ = e.close()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		_ = e.close()
		return nil, fmt.Errorf("results stream: status %d", resp.StatusCode)
	}
	e.readDone = make(chan struct{})
	go e.read(resp.Body)
	return e, nil
}

// read decodes NDJSON frames until the stream ends.
func (e *spexdEnv) read(body io.ReadCloser) {
	defer close(e.readDone)
	defer body.Close()
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		var f server.Frame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			e.arr.fail(err)
			return
		}
		e.arr.frame(f, time.Now())
	}
	e.arr.fail(sc.Err())
}

func (e *spexdEnv) close() error {
	if e.stopRead != nil {
		e.stopRead()
	}
	if e.readDone != nil {
		<-e.readDone
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if herr := e.hs.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-e.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	e.ingestTr.CloseIdleConnections()
	e.resultTr.CloseIdleConnections()
	return err
}

func spexdIngest(seed int64) (*workload, error) {
	docs := dmozDocs(newRNG(seed, 5), 64, 45)
	want, err := oracleFor(docs, []string{ingestQuery})
	if err != nil {
		return nil, err
	}
	w := &workload{
		name:          "spexd-ingest",
		docs:          docs,
		want:          want,
		setupsPerUnit: 2,
		opsPerUnit:    40,
		refBytes:      2 << 20,
		refThreads:    2,
		nominalRefMBs: nominalStructureMBs,
	}
	w.setup = func() (env, error) { return startSpexd(docs, want) }
	plan, err := core.Prepare(ingestQuery)
	if err != nil {
		return nil, err
	}
	q, err := spex.Compile(ingestQuery)
	if err != nil {
		return nil, err
	}
	w.layers = func(_ env, i, seq int, rec *recorder) (counters, error) {
		c := counters{}
		if err := scanPass(docs[i], false, rec, seq, c); err != nil {
			return nil, err
		}
		if err := feedPass(plan, docs[i], false, rec, seq, c); err != nil {
			return nil, err
		}
		// The engine alone: the same document through a direct spex.Set on
		// the server's default engine.
		id := rec.begin("spex.set", seq)
		if err := spex.NewSet([]*spex.Query{q}, func(int, spex.Match) {}).Evaluate(bytes.NewReader(docs[i])); err != nil {
			return nil, err
		}
		rec.end(id)
		return c, nil
	}
	w.attributed = func(st map[string]float64) float64 {
		// Scan and network, plus everything outside the direct set.
		return st["xmlstream.scan"] + st["core.feed"] + (st["op"] - st["spex.set"])
	}
	return w, nil
}
