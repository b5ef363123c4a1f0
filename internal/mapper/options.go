package mapper

import (
	"math/rand"

	"sanmap/internal/obs"
	"sanmap/internal/simnet"
)

// Option mutates a Config. Options are the one way to configure a run:
// NewSession and RestoreSession resolve them over the paper-faithful
// defaults (DefaultConfig), and Run is a session's first Map under the
// strict refusal rule (Result.Exact). A field with no With function is set
// through an Option literal, func(c *Config) { ... }.
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

// WithCoupons makes the session's first Map the §6 randomized hybrid: n
// maximal-depth random probes, turns drawn from rng, seed the model before
// the breadth-first drain (randomized.go). n <= 0 leaves the plain BFS.
func WithCoupons(n int, rng *rand.Rand) Option {
	return func(c *Config) { c.Coupons, c.CouponRng = n, rng }
}

// buildConfig resolves options over the defaults.
func buildConfig(opts ...Option) Config {
	cfg := DefaultConfig(0)
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	return cfg
}

// Run maps from the given prober with the paper-faithful defaults plus the
// supplied options: a session's first Map, under the strict Result.Exact.
//
//	m, err := mapper.Run(p, mapper.WithDepth(d), mapper.WithPipeline(8))
func Run(p simnet.Prober, opts ...Option) (*Map, error) {
	s, err := NewSession(p, opts...)
	if err != nil {
		return nil, err
	}
	res, err := s.Map()
	if err != nil {
		return nil, err
	}
	return res.Exact()
}
