// Package harness runs the paper's experimental methodology (§IV) on
// the simulated platform and regenerates every figure of the
// evaluation (§V): performance speedups (Figure 2), normalized power
// (Figure 3) and normalized energy-to-solution (Figure 4), in single
// and double precision, plus the §V-D summary averages.
package harness

import (
	"fmt"
	"math"
	"time"

	"maligo/internal/bench"
	"maligo/internal/cl"
	"maligo/internal/core"
	"maligo/internal/device"
	"maligo/internal/obs"
	"maligo/internal/platform"
	"maligo/internal/power"
	"maligo/internal/vm"
)

// Config controls a harness run.
type Config struct {
	// Scale multiplies the paper-scale workload sizes (use <1 for
	// quick runs and tests).
	Scale float64
	// Precisions to run; default both.
	Precisions []bench.Precision
	// Benchmarks to run by name; default all nine.
	Benchmarks []string
	// Verify enables result verification after each version.
	Verify bool
	// MeterSeed seeds the power-meter noise stream.
	MeterSeed uint64
	// Workers is the host worker count of the parallel NDRange engine;
	// 0 selects runtime.NumCPU(), 1 forces the serial engine. The
	// simulated results are bit-identical at every setting — Workers
	// only changes how fast the simulation itself runs (HostSeconds).
	Workers int
	// ProfileLines enables hot-line attribution for the measured run
	// of every version: each cell gets the top source lines by bytes
	// moved. Costs detailed tracing time, so off by default.
	ProfileLines bool
	// SoC selects the board model every benchmark runs on; nil is the
	// default Exynos 5250 — the paper's platform, on which every
	// figure band is pinned by TestPaperShape.
	SoC *platform.SoC
}

// DefaultConfig is the paper-scale configuration.
func DefaultConfig() Config {
	return Config{
		Scale:      1.0,
		Precisions: []bench.Precision{bench.F32, bench.F64},
		Benchmarks: bench.Names(),
		Verify:     true,
		MeterSeed:  20140519, // IPDPS 2014 opening day
	}
}

// soc returns the configured board model, defaulting to the Exynos
// 5250.
func (c Config) soc() *platform.SoC {
	if c.SoC != nil {
		return c.SoC
	}
	return platform.Default()
}

// Cell is one measured configuration.
type Cell struct {
	Bench     string
	Precision bench.Precision
	Version   bench.Version

	Supported bool
	Reason    string // why unsupported

	// Seconds is the simulated duration of the measured region.
	Seconds float64
	// HostSeconds is the host wall-clock the simulator itself spent on
	// the measured run — what the parallel engine shrinks.
	HostSeconds float64
	Power       power.Measurement
	FellBack    bool
	Kernels     []string
	Activity    power.Activity
	VerifyError error

	// Timeline is the measured region's command timeline (profiling
	// timestamps), ready for obs.WriteChromeTrace.
	Timeline []obs.Span
	// Metrics is the benchmark context's metrics snapshot taken right
	// after this cell's measured run (counters accumulate across the
	// versions of one benchmark).
	Metrics obs.Snapshot
	// HotLines is the top-10 hot-line profile of the measured run when
	// Config.ProfileLines is set (nil otherwise).
	HotLines []vm.LineStat
}

// Results holds every cell of a harness run.
type Results struct {
	Config Config
	Cells  map[string]*Cell
}

func cellKey(name string, prec bench.Precision, v bench.Version) string {
	return fmt.Sprintf("%s/%s/%s", name, prec, v)
}

// Cell returns the cell for a configuration (nil if absent).
func (r *Results) Cell(name string, prec bench.Precision, v bench.Version) *Cell {
	return r.Cells[cellKey(name, prec, v)]
}

// Speedup returns the speedup of version v over Serial for a
// benchmark, or NaN when either cell is missing/unsupported.
func (r *Results) Speedup(name string, prec bench.Precision, v bench.Version) float64 {
	base := r.Cell(name, prec, bench.Serial)
	c := r.Cell(name, prec, v)
	if base == nil || c == nil || !base.Supported || !c.Supported || c.Seconds == 0 {
		return math.NaN()
	}
	return base.Seconds / c.Seconds
}

// NormPower returns power of version v normalized to Serial.
func (r *Results) NormPower(name string, prec bench.Precision, v bench.Version) float64 {
	base := r.Cell(name, prec, bench.Serial)
	c := r.Cell(name, prec, v)
	if base == nil || c == nil || !base.Supported || !c.Supported || base.Power.MeanPowerW == 0 {
		return math.NaN()
	}
	return c.Power.MeanPowerW / base.Power.MeanPowerW
}

// NormEnergy returns energy-to-solution of version v normalized to
// Serial.
func (r *Results) NormEnergy(name string, prec bench.Precision, v bench.Version) float64 {
	base := r.Cell(name, prec, bench.Serial)
	c := r.Cell(name, prec, v)
	if base == nil || c == nil || !base.Supported || !c.Supported || base.Power.EnergyJ == 0 {
		return math.NaN()
	}
	return c.Power.EnergyJ / base.Power.EnergyJ
}

// Run executes the configured experiments.
func Run(cfg Config) (*Results, error) {
	if cfg.Scale == 0 {
		cfg.Scale = 1.0
	}
	if len(cfg.Precisions) == 0 {
		cfg.Precisions = []bench.Precision{bench.F32, bench.F64}
	}
	if len(cfg.Benchmarks) == 0 {
		cfg.Benchmarks = bench.Names()
	}
	res := &Results{Config: cfg, Cells: make(map[string]*Cell)}
	meter := power.NewMeterFor(cfg.soc(), cfg.MeterSeed, 0)

	for _, name := range cfg.Benchmarks {
		for _, prec := range cfg.Precisions {
			if err := runBenchmark(cfg, res, meter, name, prec); err != nil {
				return nil, fmt.Errorf("%s (%s): %w", name, prec, err)
			}
		}
	}
	return res, nil
}

// runBenchmark measures all four versions of one benchmark at one
// precision. A fresh board (context and devices) is created per
// benchmark so cache state never leaks between benchmarks; within a
// benchmark, every version is measured by MeasureRegion.
func runBenchmark(cfg Config, res *Results, meter *power.Meter, name string, prec bench.Precision) error {
	b := bench.ByName(name)
	if b == nil {
		return fmt.Errorf("unknown benchmark %q", name)
	}
	p := core.NewPlatformWith(core.Options{Workers: cfg.Workers, SoC: cfg.SoC})
	defer p.Close()
	ctx := p.Context

	prog := ctx.CreateProgramWithSource(b.Source())
	if err := prog.Build(prec.BuildOptions()); err != nil {
		return err
	}
	if err := b.Setup(ctx, prec, cfg.Scale); err != nil {
		return err
	}

	queues := map[bench.Version]*cl.CommandQueue{}
	for _, v := range bench.Versions() {
		queues[v] = ctx.CreateCommandQueue(VersionDevice(p, v))
	}

	for _, v := range bench.Versions() {
		cell := &Cell{Bench: name, Precision: prec, Version: v, Supported: true}
		res.Cells[cellKey(name, prec, v)] = cell

		if ok, reason := b.Supported(prec, v); !ok {
			cell.Supported = false
			cell.Reason = reason
			continue
		}
		q := queues[v]
		r, err := MeasureRegion(q, b, prog, v, cfg.ProfileLines)
		if err != nil {
			return err
		}
		cell.HostSeconds = r.HostSeconds
		cell.FellBack = r.Info.FellBack
		cell.Kernels = r.Info.Kernels
		cell.Seconds = r.Activity.Seconds
		cell.Activity = r.Activity
		cell.Power = meter.Measure(r.Activity)
		cell.Timeline = q.Timeline()
		cell.Metrics = ctx.Metrics().Snapshot()
		if lp := q.LineProfile(); cfg.ProfileLines && lp != nil {
			cell.HotLines = lp.Top(10)
		}

		if cfg.Verify {
			if err := b.Verify(prec); err != nil {
				cell.VerifyError = err
				return fmt.Errorf("%s verification: %w", v, err)
			}
		}
	}
	return nil
}

// VersionDevice is the device of p a benchmark version runs on: one
// CPU core for Serial, the cluster for OpenMP, the GPU for both
// OpenCL versions.
func VersionDevice(p *core.Platform, v bench.Version) device.Device {
	switch v {
	case bench.Serial:
		return p.CPU1
	case bench.OpenMP:
		return p.CPU2
	}
	return p.GPU
}

// Region is one measured steady-state region.
type Region struct {
	Info *bench.RunInfo
	// Activity is the measured run's events folded by
	// core.RegionActivity.
	Activity power.Activity
	// HostSeconds is the host wall-clock of the measured run alone.
	HostSeconds float64
}

// MeasureRegion runs the paper's measurement protocol (§IV) for
// version v of b on q, the one every harness leg and the autotuner
// share: a warm-up run, ResetEvents, then the measured run, which
// alone is timed on the host and, with lines set, line-profiled. Only
// the steady-state region is priced, like the paper. The warm-up
// leaves the simulated caches warm and records each launch in the
// context's launch memo, so the measured run, which repeats the
// launches on the same inputs, replays the recorded traces into the
// warm timing model instead of executing the kernels again (see
// internal/cl). Its simulated results are bit-identical to a
// re-execution, but its HostSeconds measure the replay, not VM cost.
func MeasureRegion(q *cl.CommandQueue, b bench.Benchmark, prog *cl.Program, v bench.Version, lines bool) (Region, error) {
	if _, err := b.Run(q, prog, v); err != nil {
		return Region{}, fmt.Errorf("%s warm-up: %w", v, err)
	}
	q.ResetEvents() // rewinds the queue clock: measured timeline starts at t=0
	if lines {
		q.SetLineProfile(true)
	}
	start := time.Now() // maligo:allow walltime Region.HostSeconds is documented host wall-clock
	info, err := b.Run(q, prog, v)
	if err != nil {
		return Region{}, fmt.Errorf("%s: %w", v, err)
	}
	r := Region{Info: info, HostSeconds: time.Since(start).Seconds(), Activity: core.RegionActivity(q)}
	if r.Activity.Seconds <= 0 {
		return r, fmt.Errorf("harness: empty measured region")
	}
	return r, nil
}
