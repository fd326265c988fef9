package main

import "fmt"

// layerNames is every per-layer metric, in BENCHMARK.json's order. A
// workload that does not exercise a layer reports it as 0.
var layerNames = []struct{ name, unit string }{
	{"xmlstream.scan_share", "ratio"},
	{"xmlstream.ns_per_event", "ns"},
	{"xmlstream.events", "count"},
	{"core.feed_share", "ratio"},
	{"core.ns_per_event", "ns"},
	{"core.transducers", "count"},
	{"core.max_stack", "count"},
	{"core.max_formula", "count"},
	{"spex.results_share", "ratio"},
	{"spex.out_b_per_b", "B/B"},
	{"spex.alloc_b_per_answer", "B"},
	{"setcompile.compile_ms", "ms"},
	{"setcompile.naive_transducers", "count"},
	{"setcompile.merged_transducers", "count"},
	{"setcompile.contained", "count"},
	{"multi.build_ms", "ms"},
	{"multi.feed_ms", "ms"},
	{"multi.build_share", "ratio"},
	{"server.ingest_ms", "ms"},
	{"server.frame_wait_ms", "ms"},
	{"server.frames", "count"},
	{"server.refused", "count"},
	{"server.overhead_share", "ratio"},
	{"bench.host_factor", "ratio"},
	{"bench.ref_mb_s", "MB/s"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.unattributed_share", "ratio"},
}

// layerResult turns the traced run's spans and counts into the per-layer
// metrics: each is the median over the operations that had layer passes
// beside them.
func (s *runState) layerResult(e env) *result {
	self := s.rec.selfTimes()
	per := map[string][]float64{}
	add := func(name string, v float64) { per[name] = append(per[name], v) }
	for seq, c := range s.layerCnt {
		op := s.ops[seq]
		if op.failed {
			continue
		}
		t := map[string]float64{}
		for name, bySeq := range self {
			if v, ok := bySeq[seq]; ok {
				t[name] = v
			}
		}
		t["op"] = op.norm()
		opT := t["op"]
		if v, ok := t["xmlstream.scan"]; ok {
			add("xmlstream.scan_share", v/opT)
			add("xmlstream.ns_per_event", v/c["events"]*1e9)
			add("xmlstream.events", c["events"])
		}
		if v, ok := t["core.feed"]; ok {
			add("core.feed_share", v/opT)
			add("core.ns_per_event", v/c["events"]*1e9)
			add("core.transducers", c["transducers"])
			add("core.max_stack", c["max_stack"])
			add("core.max_formula", c["max_formula"])
		}
		if wr, ok := t["spex.write_results"]; ok {
			add("spex.results_share", (wr-t["spex.count"])/wr)
			add("spex.out_b_per_b", c["out_bytes"]/float64(op.bytes))
			add("spex.alloc_b_per_answer", c["results_alloc"]/c["answers"])
		}
		if v, ok := t["setcompile.compile"]; ok {
			add("setcompile.compile_ms", v*1e3)
			add("setcompile.naive_transducers", c["naive_transducers"])
			add("setcompile.merged_transducers", c["merged_transducers"])
			add("setcompile.contained", c["contained"])
			build := t["multi.new_merged_set"] - v
			add("multi.build_ms", build*1e3)
			add("multi.feed_ms", t["multi.feed"]*1e3)
			add("multi.build_share", build/opT)
		}
		if v, ok := t["spex.set"]; ok {
			add("server.overhead_share", 1-v/opT)
		}
		add("bench.unattributed_share", 1-s.w.attributed(t)/opT)
	}
	// The result-stream split comes from the traced operations' own spans:
	// POST to response, and POST to last frame. Frames usually arrive
	// before the response, so the wait after the response can be negative.
	for seq, ingest := range self["server.ingest"] {
		add("server.ingest_ms", ingest*1e3)
		add("server.frame_wait_ms", (self["server.last_frame"][seq]-ingest)*1e3)
	}
	if sc, ok := e.(interface{ serverCounts() (float64, int) }); ok {
		frames, refused := sc.serverCounts()
		add("server.frames", frames)
		add("server.refused", float64(refused))
	}
	add("bench.host_factor", median(s.hs))
	add("bench.ref_mb_s", median(s.refMBs))
	var traced, plain []float64
	for _, o := range s.ops {
		if o.failed {
			continue
		}
		if o.traced {
			traced = append(traced, o.norm())
		} else {
			plain = append(plain, o.norm())
		}
	}
	add("bench.trace_overhead_pct", (median(traced)/median(plain)-1)*100)

	m := map[string]metric{}
	fmt.Printf("workload %s traced run: %d operations, %d with layer passes, %d spans\n",
		s.w.name, len(s.ops), len(s.layerCnt), len(s.rec.spans))
	for _, l := range layerNames {
		v := 0.0
		if xs := per[l.name]; len(xs) > 0 {
			v = median(xs)
		}
		m[l.name] = metric{v, l.unit}
		fmt.Printf("  %-30s %14.6g %s (%d samples)\n", l.name, v, l.unit, len(per[l.name]))
	}
	attempted, failed := s.counts()
	return &result{Correct: s.badAns == 0, Attempted: attempted, Failed: failed, Metrics: m}
}
