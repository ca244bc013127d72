// Package cpu models the ARM Cortex-A15 cores of the Exynos 5250 for
// the paper's Serial (one core) and OpenMP (two cores) benchmark
// versions. The benchmark kernels for the CPU are scalar loops (the
// paper compiles with GCC -O3 but without auto-vectorized FP, since
// the A15 lacks a full IEEE-754 double-precision SIMD unit), so the
// timing model is a scalar out-of-order pipeline:
//
//   - issue bounded by decode width and per-pipe throughput (two
//     integer ALUs, one FP/VFP pipe, one load/store pipe);
//   - cache stalls from a two-level simulation (32 KB private L1,
//     1 MB shared L2), derated by out-of-order latency hiding;
//   - a per-core streaming bandwidth ceiling well below the DDR3
//     channel peak, plus the shared channel ceiling across cores;
//   - OpenMP fork/join overhead per parallel region.
package cpu

import (
	"fmt"

	"maligo/internal/clc/ir"
	"maligo/internal/device"
	"maligo/internal/mem"
	"maligo/internal/platform"
	"maligo/internal/vm"
)

// CPU is a CPU cluster built from a registered SoC model (the default
// is the Exynos 5250's Cortex-A15 pair), restricted to a given number
// of cores.
type CPU struct {
	m     *platform.CPUModel
	cores int
	l1    []*mem.Cache
	l2    *mem.Cache
}

// New creates the default CPU device (the Exynos 5250's Cortex-A15)
// using the given number of cores (1 for the Serial configuration, 2
// for OpenMP).
func New(cores int) *CPU {
	return NewOn(platform.Default(), cores)
}

// NewOn creates the CPU cluster device of the given SoC model using
// the given number of cores, capped at the cluster size. Every number
// the timing model consumes comes from soc.CPU.
func NewOn(soc *platform.SoC, cores int) *CPU {
	m := soc.CPU
	if cores < 1 {
		cores = 1
	}
	if cores > m.Cores {
		cores = m.Cores
	}
	c := &CPU{m: m, cores: cores}
	for i := 0; i < cores; i++ {
		c.l1 = append(c.l1, mem.NewCache(mem.CacheConfig{
			SizeBytes: m.L1Size,
			LineBytes: m.L1Line,
			Ways:      m.L1Ways,
		}))
	}
	c.l2 = mem.NewCache(mem.CacheConfig{
		SizeBytes: m.L2Size,
		LineBytes: m.L2Line,
		Ways:      m.L2Ways,
	})
	return c
}

// Model returns the cluster's calibration model.
func (c *CPU) Model() *platform.CPUModel { return c.m }

// Name implements device.Device.
func (c *CPU) Name() string {
	if c.cores == 1 {
		return c.m.Name + " (1 core)"
	}
	return fmt.Sprintf("%s (%d cores)", c.m.Name, c.cores)
}

// Cores returns the core count of this device configuration.
func (c *CPU) Cores() int { return c.cores }

// MaxWorkGroupSize implements device.Device. CPU OpenCL
// implementations typically allow large groups; the benchmark drivers
// use one work-item per thread anyway.
func (c *CPU) MaxWorkGroupSize() int { return 1024 }

// ResetCaches clears cache state.
func (c *CPU) ResetCaches() {
	for _, l1 := range c.l1 {
		l1.Reset()
	}
	c.l2.Reset()
}

// L2Stats returns the shared L2 cache statistics accumulated so far —
// the source of the observability layer's cache hit-rate metrics.
func (c *CPU) L2Stats() mem.CacheStats { return c.l2.Stats() }

// DefaultLocalSize implements device.Device: one work-item per group,
// groups spread across cores.
func (c *CPU) DefaultLocalSize(ndr *device.NDRange) [3]int {
	return [3]int{1, 1, 1}
}

// observer drives the two-level cache hierarchy for one core. It also
// classifies DRAM misses as sequential (prefetchable by the A15's L2
// stream prefetchers) or random, by checking each missed line against
// a small window of recently missed lines.
type observer struct {
	l1        *mem.Cache
	l2        *mem.Cache
	l1Misses  uint64
	l2SeqMiss uint64
	l2RndMiss uint64
	dramBytes uint64
	lineBytes uint64

	recent [8]uint64 // recently missed line addresses
	rpos   int
}

func physical(space int, addr int64) uint64 {
	_, off := ir.DecodeAddr(addr)
	switch space {
	case ir.SpaceLocal:
		return (1 << 44) + uint64(off)
	case ir.SpacePrivate:
		return (1 << 45) + uint64(off)
	case ir.SpaceConstant:
		return (1 << 46) + uint64(off)
	default:
		return uint64(off)
	}
}

// OnAccess implements vm.AccessObserver.
func (o *observer) OnAccess(space int, addr int64, size int, write bool) {
	phys := physical(space, addr)
	misses, _ := o.l1.Access(phys, size, write)
	if misses == 0 {
		return
	}
	o.l1Misses += uint64(misses)
	// Refill each missing line through the L2.
	l2m, l2wb := o.l2.Access(phys, size, write)
	o.dramBytes += uint64(l2m+l2wb) * o.lineBytes
	if l2m == 0 {
		return
	}
	line := phys / o.lineBytes
	seq := false
	for _, r := range o.recent {
		if line == r+1 || line == r+2 {
			seq = true
			break
		}
	}
	if seq {
		o.l2SeqMiss += uint64(l2m)
	} else {
		o.l2RndMiss += uint64(l2m)
	}
	o.recent[o.rpos] = line
	o.rpos = (o.rpos + 1) % len(o.recent)
}

// OnRepeat implements vm.RepeatObserver: a folded record's repeats hit
// the L1 line its first access just touched and never reach the L2.
func (o *observer) OnRepeat(n int, write bool) { o.l1.Repeat(n, write) }

// OnAtomic implements vm.AccessObserver; CPU atomics (LDREX/STREX) are
// priced in threadSeconds via the profile's Atomics counter.
func (o *observer) OnAtomic(space int, addr int64, size int) {}

// threadSeconds prices one thread's execution from its profile. The
// simulator IR is unoptimized three-address code, so instruction and
// integer-lane counts are derated by the model's InstrFactor to
// approximate GCC -O3 output (addressing modes, fused compares).
func (c *CPU) threadSeconds(p *vm.Profile, o *observer) (seconds, util float64) {
	m := c.m
	issue := float64(p.Instrs) * m.InstrFactor / m.IssueWidth
	intc := float64(p.IntLanes) * m.InstrFactor / m.IntALUs
	fpc := float64(p.F32Lanes) +
		float64(p.F64Lanes)*m.F64Factor +
		float64(p.TranscLanes)*m.TranscCycles
	lsc := float64(p.LSLanes) + float64(p.Atomics)*8
	busy := issue
	for _, v := range []float64{intc, fpc, lsc} {
		if v > busy {
			busy = v
		}
	}
	stalls := float64(o.l1Misses)*m.L2HitLatency*m.L2HideFactor +
		float64(o.l2RndMiss)*m.DRAMLatency*m.DRAMHideFactor +
		float64(o.l2SeqMiss)*m.DRAMLatency*m.PrefetchHideFactor
	cycles := busy + stalls
	seconds = cycles / m.FreqHz
	if bw := float64(o.dramBytes) / m.PerCoreBandwidth; bw > seconds {
		seconds = bw
	}
	if cycles > 0 {
		util = busy / cycles
	}
	return seconds, util
}

// RunWith implements device.Device. Work-groups are distributed
// round-robin over the modelled cores (OpenMP static scheduling of
// chunked loops — each chunk is one work-item in the CPU versions of
// the benchmarks). Groups execute functionally (in parallel on the
// host with a pool in rc) while their memory traces are replayed
// through the per-core cache hierarchies in dispatch order, keeping
// the report bit-identical at every worker count.
func (c *CPU) RunWith(rc device.RunConfig, ndr *device.NDRange, gmem vm.GlobalMemory) (*device.Report, error) {
	device.NormalizeLocal(c, ndr)
	if err := device.ValidateNDRange(c, ndr); err != nil {
		return nil, err
	}

	profiles := make([]vm.Profile, c.cores)
	observers := make([]*observer, c.cores)
	for i := 0; i < c.cores; i++ {
		observers[i] = &observer{
			l1:        c.l1[i],
			l2:        c.l2,
			lineBytes: uint64(c.m.L2Line),
		}
	}

	err := device.RunGroups(rc, ndr, gmem, func(gw *device.GroupWork) error {
		core := gw.Index % c.cores
		gw.Trace.Replay(observers[core])
		gw.Trace.Release()
		profiles[core].Add(&gw.Profile)
		return nil
	})
	if err != nil {
		return nil, err
	}

	total := &vm.Profile{}
	var maxSec, busySec, utilSum float64
	var dramBytes uint64
	active := 0
	for i := 0; i < c.cores; i++ {
		total.Add(&profiles[i])
		sec, util := c.threadSeconds(&profiles[i], observers[i])
		if sec > 0 {
			active++
			busySec += sec
			utilSum += util * sec
		}
		if sec > maxSec {
			maxSec = sec
		}
		dramBytes += observers[i].dramBytes
	}
	seconds := maxSec
	if bw := float64(dramBytes) / c.m.ClusterBandwidth; bw > seconds {
		seconds = bw
	}
	dispatch := 0.0
	if c.cores > 1 {
		seconds += c.m.OMPOverheadSec
		dispatch = c.m.OMPOverheadSec
	}
	util := 0.0
	if busySec > 0 {
		util = utilSum / busySec
	}
	return &device.Report{
		Seconds:         seconds,
		DispatchSeconds: dispatch,
		BusyCoreSeconds: busySec,
		ActiveCores:     active,
		Utilization:     util,
		DRAMBytes:       dramBytes,
		Profile:         *total,
	}, nil
}
