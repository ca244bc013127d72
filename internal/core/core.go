// Package core is the façade of the maligo library: it assembles the
// simulated Samsung Exynos 5250 platform (Cortex-A15 CPU devices and
// the Mali-T604 GPU device sharing unified memory), exposes the
// OpenCL-style runtime on top of it, and wires in the power model —
// everything a user needs to write and measure OpenCL workloads the
// way the paper does.
//
// Typical use:
//
//	p := core.NewPlatform()
//	prog := p.Context.CreateProgramWithSource(src)
//	if err := prog.Build("-DREAL=float"); err != nil { ... }
//	q := p.Context.CreateCommandQueue(p.GPU)
//	... create buffers, set args, enqueue ...
//	m, act := p.Measure(q)
//
// # Power accounting
//
// RegionActivity is the one rule that turns a measured region (the
// events recorded on a queue since its last ResetEvents) into the
// power model's Activity. The figure harness, the autotuner, malid
// and Platform.Measure all price regions through it:
//
//   - the region's seconds are the time its commands cover
//     (cl.CoveredSeconds): commands that overlap on an out-of-order
//     queue count once, and an in-order region adds up its commands'
//     durations;
//   - a host-side command (a copy, map or unmap: no device report)
//     burns one CPU core, and raises CPU utilization to at least 0.4;
//   - a kernel adds its DRAM bytes, and its busy core-seconds to the
//     unit that ran it: the GPU when the queue's device is the Mali,
//     the CPU cluster otherwise. That unit's utilization is the mean of
//     its kernels' utilizations weighted by their busy core-seconds;
//   - on a GPU region the host core spins on clFinish for as long as a
//     kernel runs: HostSpinSeconds is the time the kernels cover, by the
//     same rule as the region's seconds. Busy core-seconds stay sums.
package core

import (
	"maligo/internal/cl"
	"maligo/internal/cpu"
	"maligo/internal/device"
	"maligo/internal/mali"
	"maligo/internal/platform"
	"maligo/internal/power"
)

// Platform is one simulated board: two CPU device views (one core and
// the full cluster), the GPU, and a context over their shared unified
// memory. The default board is the Arndale's Exynos 5250; Options.SoC
// selects any registered fleet member.
type Platform struct {
	SoC     *platform.SoC
	CPU1    *cpu.CPU  // one CPU core (the paper's Serial target)
	CPU2    *cpu.CPU  // the full CPU cluster (the OpenMP target)
	GPU     *mali.GPU // the SoC's GPU
	Context *cl.Context
	Meter   *power.Meter
}

// Options configures platform assembly. Zero values select the
// defaults: DefaultArenaBytes, runtime.NumCPU() engine workers, meter
// seed 1 at the WT230's 10 Hz.
type Options struct {
	// ArenaBytes is the simulated unified-memory capacity.
	ArenaBytes int64
	// Workers is the host worker count of the parallel NDRange engine;
	// 1 forces the serial engine.
	Workers int
	// MeterSeed seeds the power meter's deterministic noise stream.
	MeterSeed uint64
	// MeterHz is the power meter's sampling rate.
	MeterHz float64
	// SoC selects the board model the devices and the power meter are
	// built from; nil selects the default Exynos 5250. Use
	// platform.Lookup (maligo.LookupDevice) to resolve a fleet name.
	SoC *platform.SoC
}

// NewPlatform assembles a fresh board with cold caches and default
// options.
func NewPlatform() *Platform { return NewPlatformWith(Options{}) }

// NewPlatformWith assembles a fresh board from options.
func NewPlatformWith(o Options) *Platform {
	soc := o.SoC
	if soc == nil {
		soc = platform.Default()
	}
	cpu1 := cpu.NewOn(soc, 1)
	cpu2 := cpu.NewOn(soc, soc.CPU.Cores)
	gpu := mali.NewOn(soc)
	seed := o.MeterSeed
	if seed == 0 {
		seed = 1
	}
	return &Platform{
		SoC:  soc,
		CPU1: cpu1,
		CPU2: cpu2,
		GPU:  gpu,
		Context: cl.NewContextWith(
			cl.WithDevices(cpu1, cpu2, gpu),
			cl.WithArenaBytes(o.ArenaBytes),
			cl.WithWorkers(o.Workers),
		),
		Meter: power.NewMeterFor(soc, seed, o.MeterHz),
	}
}

// Close releases platform resources (the engine worker pool).
func (p *Platform) Close() { p.Context.Close() }

// Devices lists the platform's devices like clGetDeviceIDs would.
func (p *Platform) Devices() []device.Device {
	return []device.Device{p.CPU1, p.CPU2, p.GPU}
}

// Measure folds the events recorded on q since the last ResetEvents
// into a board-level power/energy measurement using the simulated
// Yokogawa WT230 protocol (20 repetitions, 10 Hz sampling, 0.1%
// accuracy). It returns the measurement and the region's activity
// (RegionActivity).
func (p *Platform) Measure(q *cl.CommandQueue) (power.Measurement, power.Activity) {
	act := RegionActivity(q)
	return p.Meter.Measure(act), act
}

// RegionActivity folds the events recorded on q since the last
// ResetEvents into a power-model activity, by the rule in the package
// comment. Whether the region ran on the GPU follows from q's device.
func RegionActivity(q *cl.CommandQueue) power.Activity {
	_, onGPU := q.Device().(*mali.GPU)
	evs := q.Events()
	act := power.Activity{Seconds: cl.CoveredSeconds(evs)}
	var kernels []*cl.Event
	for _, ev := range evs {
		rep := ev.Report
		if rep == nil {
			act.CPUBusyCoreSeconds += ev.Seconds
			act.CPUUtil = max(act.CPUUtil, 0.4)
			continue
		}
		act.DRAMBytes += rep.DRAMBytes
		if onGPU {
			act.GPUBusyCoreSeconds += rep.BusyCoreSeconds
			act.GPUUtil = weightedUtil(act.GPUUtil, act.GPUBusyCoreSeconds-rep.BusyCoreSeconds,
				rep.Utilization, rep.BusyCoreSeconds)
			kernels = append(kernels, ev)
		} else {
			act.CPUBusyCoreSeconds += rep.BusyCoreSeconds
			act.CPUUtil = weightedUtil(act.CPUUtil, act.CPUBusyCoreSeconds-rep.BusyCoreSeconds,
				rep.Utilization, rep.BusyCoreSeconds)
		}
	}
	act.HostSpinSeconds = cl.CoveredSeconds(kernels)
	return act
}

// weightedUtil extends a utilization averaged over prevWeight
// busy core-seconds by a kernel's util over weight more.
func weightedUtil(prevUtil, prevWeight, util, weight float64) float64 {
	total := prevWeight + weight
	if total <= 0 {
		return util
	}
	return (prevUtil*prevWeight + util*weight) / total
}
