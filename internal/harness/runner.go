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
	"maligo/internal/cpu"
	"maligo/internal/mali"
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
	// Engine selects the VM execution engine (vm.EngineInterp for the
	// reference interpreter, vm.EngineCompiled for the closure-compiled
	// fast path). The default honours MALIGO_ENGINE and otherwise runs
	// the fast path; results are bit-identical either way.
	Engine vm.Engine
	// AsyncQueues routes every benchmark enqueue through the DAG
	// command scheduler instead of the synchronous queue path. Every
	// figure is bit-identical either way — the scheduler's timestamps
	// are a pure function of the dependency graph.
	AsyncQueues bool
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
// precision. A fresh context and fresh devices are created per
// benchmark so cache state never leaks between benchmarks; within a
// benchmark, every version gets a warm-up execution before the
// measured one, matching the paper's methodology of timing only the
// steady-state parallel region. The warm-up leaves the simulated
// caches warm and also records each launch in the context's launch
// memo, so the measured run, which repeats the launches on the same
// inputs, replays the recorded traces into the warm timing model
// instead of executing the kernels again (see internal/cl). Its
// simulated results are bit-identical to a re-execution, but its
// HostSeconds measure the replay, not VM cost.
func runBenchmark(cfg Config, res *Results, meter *power.Meter, name string, prec bench.Precision) error {
	b := bench.ByName(name)
	if b == nil {
		return fmt.Errorf("unknown benchmark %q", name)
	}
	soc := cfg.soc()
	cpu1 := cpu.NewOn(soc, 1)
	cpu2 := cpu.NewOn(soc, soc.CPU.Cores)
	gpu := mali.NewOn(soc)
	ctx := cl.NewContextWith(
		cl.WithDevices(cpu1, cpu2, gpu),
		cl.WithWorkers(cfg.Workers),
		cl.WithEngine(cfg.Engine),
		cl.WithAsyncQueues(cfg.AsyncQueues),
	)
	defer ctx.Close()

	prog := ctx.CreateProgramWithSource(b.Source())
	if err := prog.Build(prec.BuildOptions()); err != nil {
		return err
	}
	if err := b.Setup(ctx, prec, cfg.Scale); err != nil {
		return err
	}

	queues := map[bench.Version]*cl.CommandQueue{
		bench.Serial:    ctx.CreateCommandQueue(cpu1),
		bench.OpenMP:    ctx.CreateCommandQueue(cpu2),
		bench.OpenCL:    ctx.CreateCommandQueue(gpu),
		bench.OpenCLOpt: ctx.CreateCommandQueue(gpu),
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

		// Warm-up execution (caches, like the paper's repeated
		// iterations reaching steady state); it also records the
		// launches the measured run replays.
		if _, err := b.Run(q, prog, v); err != nil {
			return fmt.Errorf("%s warm-up: %w", v, err)
		}
		q.ResetEvents() // rewinds the queue clock: measured timeline starts at t=0
		if cfg.ProfileLines {
			q.SetLineProfile(true)
		}

		start := time.Now() // maligo:allow walltime Cell.HostSeconds is documented host wall-clock
		info, err := b.Run(q, prog, v)
		if err != nil {
			return fmt.Errorf("%s: %w", v, err)
		}
		cell.HostSeconds = time.Since(start).Seconds()
		cell.FellBack = info.FellBack
		cell.Kernels = info.Kernels

		act, err := ActivityFromEvents(q, v)
		if err != nil {
			return err
		}
		cell.Seconds = act.Seconds
		cell.Activity = act
		cell.Power = meter.Measure(act)
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

// ActivityFromEvents folds a measured region's queue events into a
// power-model activity. The cross-device autotuner (internal/tune)
// reuses it so tuner candidates are priced by exactly the figure
// harness's accounting.
func ActivityFromEvents(q *cl.CommandQueue, v bench.Version) (power.Activity, error) {
	var act power.Activity
	for _, ev := range q.Events() {
		act.Seconds += ev.Seconds
		if ev.Report == nil {
			// Host-side copy/map commands burn one CPU core.
			act.CPUBusyCoreSeconds += ev.Seconds
			act.CPUUtil = maxf(act.CPUUtil, 0.4)
			continue
		}
		rep := ev.Report
		act.DRAMBytes += rep.DRAMBytes
		if v.IsGPU() {
			act.GPUBusyCoreSeconds += rep.BusyCoreSeconds
			act.GPUUtil = weightedUtil(act.GPUUtil, act.GPUBusyCoreSeconds-rep.BusyCoreSeconds,
				rep.Utilization, rep.BusyCoreSeconds)
			// The host core spins on clFinish for the duration.
			act.HostSpinSeconds += ev.Seconds
		} else {
			act.CPUBusyCoreSeconds += rep.BusyCoreSeconds
			act.CPUUtil = weightedUtil(act.CPUUtil, act.CPUBusyCoreSeconds-rep.BusyCoreSeconds,
				rep.Utilization, rep.BusyCoreSeconds)
		}
	}
	if act.Seconds <= 0 {
		return act, fmt.Errorf("harness: empty measured region")
	}
	return act, nil
}

func weightedUtil(prevUtil, prevWeight, util, weight float64) float64 {
	total := prevWeight + weight
	if total <= 0 {
		return util
	}
	return (prevUtil*prevWeight + util*weight) / total
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
