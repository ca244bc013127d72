package maligo

import (
	"maligo/internal/core"
	"maligo/internal/cpu"
	"maligo/internal/mali"
)

// Platform is one simulated Arndale board (Samsung Exynos 5250): two
// Cortex-A15 device views, the Mali-T604 GPU, a context over their
// shared unified memory, and the simulated power meter. It is the
// entry point of the public API.
type Platform struct {
	*core.Platform
}

// Option configures NewPlatform and NewContext through one shared
// functional-option vocabulary. Every With* option applies to both
// constructors; the few that only make sense for one (WithDevices for
// standalone contexts, the meter options for platforms) are no-ops on
// the other, so option lists can be assembled generically.
type Option func(*config)

// config is the merged option target: the platform options plus the
// standalone-context extras.
type config struct {
	opts    core.Options
	devices []Device
}

// WithArenaBytes sets the simulated unified-memory capacity
// (default 512 MiB).
func WithArenaBytes(n int64) Option {
	return func(c *config) { c.opts.ArenaBytes = n }
}

// WithWorkers sets the host worker count of the parallel NDRange
// execution engine. The default (0) is runtime.NumCPU(); 1 forces the
// serial engine. Simulated timing and energy reports are bit-identical
// at every worker count — only the simulator's own wall-clock changes.
func WithWorkers(n int) Option {
	return func(c *config) { c.opts.Workers = n }
}

// WithDevices sets a standalone context's devices (NewContext only; a
// Platform always carries the Exynos 5250's fixed device set).
func WithDevices(devices ...Device) Option {
	return func(c *config) { c.devices = append(c.devices, devices...) }
}

// WithMeterHz sets the power meter's sampling rate (default 10 Hz,
// the Yokogawa WT230 the paper used). Platform only.
func WithMeterHz(hz float64) Option {
	return func(c *config) { c.opts.MeterHz = hz }
}

// WithMeterSeed seeds the meter's deterministic noise stream.
// Platform only.
func WithMeterSeed(seed uint64) Option {
	return func(c *config) { c.opts.MeterSeed = seed }
}

// NewPlatform assembles a fresh simulated board with cold caches.
func NewPlatform(opts ...Option) *Platform {
	var c config
	for _, opt := range opts {
		opt(&c)
	}
	return &Platform{Platform: core.NewPlatformWith(c.opts)}
}

// CPU returns the single-core Cortex-A15 device (the paper's Serial
// target); CPUDual returns the two-core view (the OpenMP target).
func (p *Platform) CPU() Device     { return p.Platform.CPU1 }
func (p *Platform) CPUDual() Device { return p.Platform.CPU2 }

// Mali returns the Mali-T604 GPU device.
func (p *Platform) Mali() Device { return p.Platform.GPU }

// Metrics returns the platform context's metrics registry — counters,
// gauges and histograms the runtime feeds on every enqueue. Take a
// point-in-time view with Metrics().Snapshot().
func (p *Platform) Metrics() *MetricsRegistry { return p.Platform.Context.Metrics() }

// Close releases platform resources (the engine worker pool). Queues
// created from the platform keep working afterwards on the serial
// engine.
func (p *Platform) Close() { p.Platform.Close() }

// Compile-time checks that the devices still satisfy the public
// Device surface.
var (
	_ Device = (*cpu.CPU)(nil)
	_ Device = (*mali.GPU)(nil)
)
