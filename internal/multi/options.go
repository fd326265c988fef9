package multi

import (
	"repro/internal/governor"
	"repro/internal/obs"
	"repro/internal/setcompile"
)

// Option configures a multi-query engine (Set or SharedSet; the parallel
// engine takes the same settings through ParallelOptions).
type Option func(*engineConfig)

// engineConfig is the resolved option set shared by the engines.
type engineConfig struct {
	gov     *governor.Config
	metrics *obs.Metrics
	traceID string
	prog    *setcompile.Program
}

func resolveOptions(opts []Option) engineConfig {
	var cfg engineConfig
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	return cfg
}

// WithGovernor attaches the resource governor to every member network:
// formula/candidate/buffer/step/variable/depth caps with a fail, degrade or
// shed policy. A nil (or all-zero) config evaluates ungoverned.
func WithGovernor(cfg *governor.Config) Option {
	return func(c *engineConfig) { c.gov = cfg }
}

// WithMetrics binds a registry for governor trip accounting: the
// spex_governor_* counters accumulate across all member networks. It does
// not enable full per-event instrumentation (that would count each stream
// event once per member network).
func WithMetrics(m *obs.Metrics) Option {
	return func(c *engineConfig) { c.metrics = m }
}

// WithTraceID stamps every trace record of every member network with the
// stream-scoped trace identifier, correlating one stream pass across the
// engine's networks and the caller's own records. Empty leaves the records
// unstamped.
func WithTraceID(id string) Option {
	return func(c *engineConfig) { c.traceID = id }
}

// WithProgram hands NewMergedSet the set compiler's program for its
// subscriptions, compiled earlier for the same queries in the same order
// (MergedSet.Program of a previous engine), so a caller evaluating one
// query set over many documents compiles it once and builds only the
// network per document. Nil compiles afresh; other engines ignore it.
func WithProgram(prog *setcompile.Program) Option {
	return func(c *engineConfig) { c.prog = prog }
}
