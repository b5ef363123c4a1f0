package mapper

import (
	"sanmap/internal/obs"
	"sanmap/internal/simnet"
)

// Option mutates a Config; Run applies options over the paper-faithful
// defaults (DefaultConfig). The functional-options constructor replaces the
// historical DefaultConfig(depth)-plus-field-pokes idiom at call sites;
// Config itself remains exported for programmatic composition (election,
// workload) through RunConfig. A field with no With function is set on the
// Config, or through an Option literal.
type Option func(*Config)

// WithDepth sets the maximum probe-string length ("SearchDepth"). Required:
// a run without a depth fails with ErrDepthExceeded.
func WithDepth(d int) Option { return func(c *Config) { c.Depth = d } }

// WithMaxVertices bounds the model graph (0 = default 1<<20).
func WithMaxVertices(n int) Option { return func(c *Config) { c.MaxVertices = n } }

// WithSnapshots enables the Fig 8 per-exploration instrumentation.
func WithSnapshots(on bool) Option { return func(c *Config) { c.Snapshots = on } }

// WithTracer records the run onto an obs.Tracer: phase spans plus one
// instant per trace event (see Config.Tracer).
func WithTracer(t *obs.Tracer) Option { return func(c *Config) { c.Tracer = t } }

// WithMetrics counts the run into an obs.Registry alongside Stats (see
// Config.Metrics).
func WithMetrics(reg *obs.Registry) Option { return func(c *Config) { c.Metrics = reg } }

// WithPipeline enables the pipelined probe engine with the given in-flight
// window. A window of 1 or less keeps the serial path (byte-identical to the
// historical transcript).
func WithPipeline(window int) Option {
	return func(c *Config) {
		c.Pipeline = simnet.WindowConfig{Window: window}
	}
}

// WithConfirm sets K-of-N probe confirmation: an edge-creating response
// must repeat k times within 2k−1 samples before it is believed. k <= 1
// keeps the single-shot quiescent behaviour.
func WithConfirm(k int) Option { return func(c *Config) { c.Confirm = k } }

// BuildConfig resolves options over the defaults.
func BuildConfig(opts ...Option) Config {
	cfg := DefaultConfig(0)
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	return cfg
}

// Run executes the Berkeley algorithm from the given prober with the
// paper-faithful defaults plus the supplied options:
//
//	m, err := mapper.Run(p, mapper.WithDepth(d), mapper.WithPipeline(8))
func Run(p simnet.Prober, opts ...Option) (*Map, error) {
	return RunConfig(p, BuildConfig(opts...))
}
