// Package mali models the ARM Mali-T604 GPU of the Exynos 5250 as the
// paper's Figure 1 describes it: four shader cores, each with two
// 128-bit arithmetic pipelines and one load/store pipeline, a job
// manager distributing work-groups across cores, a shared L2 cache
// kept coherent by the snoop control unit, and an MMU giving the GPU
// the same view of memory as the CPU (unified memory).
//
// The model executes kernels functionally through the VM and prices
// the resulting instruction stream and memory trace:
//
//   - arithmetic: 128-bit issue slots over 2 pipes per core — a float4
//     op costs the same as a scalar op, which is why the paper's
//     vectorization optimization pays off;
//   - load/store: one pipe slot per memory instruction (vector loads
//     move up to 16 bytes per slot — the vload4 optimization);
//   - per-work-item scheduling overhead — why reducing the number of
//     work-items via vectorization helps;
//   - latency hiding limited by register pressure, and a hard
//     per-thread register budget that produces CL_OUT_OF_RESOURCES
//     exactly like the paper's double-precision optimized kernels;
//   - global atomics serialized through the SCU per cache line;
//   - no thread-divergence penalty: work-items are independent threads
//     on Midgard, so the model has no warp-reconvergence term at all.
package mali

import (
	"fmt"

	"maligo/internal/clc/ir"
	"maligo/internal/device"
	"maligo/internal/mem"
	"maligo/internal/platform"
	"maligo/internal/vm"
)

// GPU is a Midgard-family GPU instance built from a registered SoC
// model (the default is the Exynos 5250's Mali-T604). It is not safe
// for concurrent use; the runtime serializes enqueues like a real
// in-order command queue.
type GPU struct {
	soc       *platform.SoC
	m         *platform.GPUModel
	l2        *mem.Cache
	embedded  bool
	localHint int
}

// New creates the default GPU device model (the Exynos 5250's
// Mali-T604) with a cold L2. The device exposes the OpenCL Full
// Profile — double precision and full IEEE-754-2008 — which is the
// paper's reason for studying this GPU at all ("the first embedded
// GPU with OpenCL Full Profile support").
func New() *GPU {
	return NewOn(platform.Default())
}

// NewOn creates the GPU device of the given SoC model with a cold L2.
// Every number the timing model consumes comes from soc.GPU and the
// shared soc.DRAM channel.
func NewOn(soc *platform.SoC) *GPU {
	return &GPU{soc: soc, m: soc.GPU, l2: newL2(soc.GPU), embedded: !soc.GPU.FP64}
}

// NewEmbeddedProfile creates a contemporary embedded-profile GPU: the
// same machine but without cl_khr_fp64, like the pre-T604 devices the
// paper's related work ran on. Double-precision kernels fail to launch
// on it — useful for demonstrating why Full Profile support is the
// gate for HPC workloads (§I, §II-B).
func NewEmbeddedProfile() *GPU {
	g := New()
	g.embedded = true
	return g
}

func newL2(m *platform.GPUModel) *mem.Cache {
	return mem.NewCache(mem.CacheConfig{
		SizeBytes: m.L2Size,
		LineBytes: m.L2Line,
		Ways:      m.L2Ways,
	})
}

// FP64 reports whether the device supports double precision
// (cl_khr_fp64) — true for the Full Profile Midgard models.
func (g *GPU) FP64() bool { return !g.embedded }

// Model returns the GPU's calibration model.
func (g *GPU) Model() *platform.GPUModel { return g.m }

// SoC returns the SoC model this device was built from.
func (g *GPU) SoC() *platform.SoC { return g.soc }

// SetLocalSizeHint tunes the driver's work-group-size heuristic: when
// the host passes NULL as the local work size, DefaultLocalSize picks
// n work-items in the first dimension instead of consulting the
// built-in heuristic — the knob the cross-device autotuner turns. A
// hint that is not a power of two, does not divide the global size,
// or exceeds the device limit is ignored for that launch, exactly
// like a real driver falling back to its own choice (the Midgard
// heuristic only ever picks powers of two, and kernels written
// against it — tree reductions halving get_local_size — rely on
// that); n <= 0 restores the heuristic.
func (g *GPU) SetLocalSizeHint(n int) { g.localHint = n }

// Name implements device.Device.
func (g *GPU) Name() string {
	if g.embedded {
		return g.m.Name + " (embedded profile)"
	}
	return g.m.Name
}

// MaxWorkGroupSize implements device.Device.
func (g *GPU) MaxWorkGroupSize() int { return g.m.MaxWorkGroupSize }

// ResetCaches clears cache state (cold-start measurement).
func (g *GPU) ResetCaches() { g.l2.Reset() }

// L2Stats returns the shared L2 cache statistics accumulated so far —
// the source of the observability layer's cache hit-rate metrics.
func (g *GPU) L2Stats() mem.CacheStats { return g.l2.Stats() }

// DefaultLocalSize implements the driver heuristic used when the host
// passes NULL as local work size. As the paper observes (§III-A, Load
// distribution), the driver "is not always capable of doing a good
// selection": it picks the largest power-of-two divisor of the global
// size up to 64 in the first dimension only, which serializes
// multi-dimensional ranges and can leave cores idle — reproducing the
// performance trap the paper warns about.
func (g *GPU) DefaultLocalSize(ndr *device.NDRange) [3]int {
	local := [3]int{1, 1, 1}
	if h := g.localHint; h > 0 && h&(h-1) == 0 && h <= g.m.MaxWorkGroupSize && ndr.Global[0]%h == 0 {
		local[0] = h
		return local
	}
	pick := 1
	for cand := 2; cand <= 64; cand *= 2 {
		if ndr.Global[0]%cand == 0 {
			pick = cand
		}
	}
	local[0] = pick
	return local
}

// RegisterDemand estimates the per-thread register bytes the real
// compiler would allocate for k on the default (Mali-T604) model.
func RegisterDemand(k *ir.Kernel) float64 {
	return RegisterDemandOn(platform.Default().GPU, k)
}

// RegisterDemandOn estimates the per-thread register bytes the real
// compiler would allocate for k on the given GPU model.
func RegisterDemandOn(m *platform.GPUModel, k *ir.Kernel) float64 {
	return float64(k.RegisterFootprint()) * m.RegFootprintScale
}

// CheckResources returns ErrOutOfResources when the kernel cannot be
// mapped onto the default (Mali-T604) register file.
func CheckResources(k *ir.Kernel) error {
	return CheckResourcesOn(platform.Default().GPU, k)
}

// CheckResourcesOn returns ErrOutOfResources when the kernel cannot
// be mapped onto the given model's register file.
func CheckResourcesOn(m *platform.GPUModel, k *ir.Kernel) error {
	if demand := RegisterDemandOn(m, k); demand > m.MaxRegBytesPerThread {
		return fmt.Errorf("kernel %s needs %.0f register bytes/thread (budget %.0f): %w",
			k.Name, demand, m.MaxRegBytesPerThread, device.ErrOutOfResources)
	}
	return nil
}

// observer feeds the shared L2 model and tracks DRAM traffic plus the
// atomic-contention line histogram for the SCU model.
type observer struct {
	l2           *mem.Cache
	localBase    uint64 // synthetic physical base of this WG's local arena
	privateBase  uint64
	dramBytes    uint64
	seqMisses    uint64
	rndMisses    uint64
	localAtomics uint64
	atomicLines  map[uint64]uint64

	recent   [8]uint64 // recently missed line addresses
	rpos     int
	lastLine uint64
	deltas   [4]int64 // recent miss strides, for strided-stream detection
	dpos     int
}

func (o *observer) physical(space int, addr int64) uint64 {
	_, off := ir.DecodeAddr(addr)
	switch space {
	case ir.SpaceLocal:
		// Mali maps __local to main memory (the paper's Memory Spaces
		// discussion): give each work-group a distinct region so the
		// cache model sees it like any other memory.
		return o.localBase + uint64(off)
	case ir.SpacePrivate:
		return o.privateBase + uint64(off)
	case ir.SpaceConstant:
		return (1 << 46) + uint64(off)
	default:
		return uint64(off)
	}
}

// OnAccess implements vm.AccessObserver. Misses are classified as
// sequential (part of a detectable stream) or random by comparing the
// missed line against a small window of recent misses.
func (o *observer) OnAccess(space int, addr int64, size int, write bool) {
	phys := o.physical(space, addr)
	misses, writebacks := o.l2.Access(phys, size, write)
	o.dramBytes += uint64(misses+writebacks) * uint64(o.l2.Config().LineBytes)
	if misses == 0 {
		return
	}
	line := phys / uint64(o.l2.Config().LineBytes)
	seq := false
	for _, r := range o.recent {
		if line == r+1 || line == r+2 {
			seq = true
			break
		}
	}
	// Constant-stride miss trains (e.g. walking a matrix column) also
	// burst efficiently through the L2 interface.
	delta := int64(line) - int64(o.lastLine)
	if !seq && delta != 0 && delta > -256 && delta < 256 {
		for _, d := range o.deltas {
			if d == delta {
				seq = true
				break
			}
		}
	}
	if seq {
		o.seqMisses += uint64(misses)
	} else {
		o.rndMisses += uint64(misses)
	}
	o.deltas[o.dpos] = delta
	o.dpos = (o.dpos + 1) % len(o.deltas)
	o.lastLine = line
	o.recent[o.rpos] = line
	o.rpos = (o.rpos + 1) % len(o.recent)
}

// OnAtomic implements vm.AtomicObserver.
func (o *observer) OnAtomic(space int, addr int64, size int) {
	if space != ir.SpaceGlobal {
		// Local atomics execute inside one shader core's L1 path —
		// cheap, and invisible to the snoop control unit.
		o.localAtomics++
		return
	}
	phys := o.physical(space, addr)
	o.atomicLines[phys/uint64(o.l2.Config().LineBytes)]++
}

// wgCost is the modelled execution time of one work-group on one
// shader core, in GPU cycles, along with its pipe activity.
type wgCost struct {
	cycles     float64
	arithSlots float64
	lsSlots    float64
}

// groupCycles prices one work-group from its profile delta.
// localAtomics is the number of this group's atomics that targeted
// __local memory (they bypass the SCU and cost a single LS slot);
// seqMisses/rndMisses are the group's L2 miss counts by class.
func (g *GPU) groupCycles(k *ir.Kernel, p *vm.Profile, dramBytes uint64, nWI int, localAtomics, seqMisses, rndMisses uint64) wgCost {
	m := g.m
	// Arithmetic: the compiler packs independent lanes into 128-bit
	// VLIW slots, so cost follows packed lane volume, not source
	// vectorization; integer addressing is discounted (folded into
	// LS descriptors and spare scalar slots).
	fpSlots := (float64(p.F32Lanes)*4 + float64(p.F64Lanes)*8) / 16
	intSlots := float64(p.IntLanes) * 4 / 16 * m.IntCostFactor
	alu := ((fpSlots+intSlots)/m.PackEff +
		float64(p.TranscLanes)*m.TranscSlotCost) / m.ArithPipes
	// The VM charges every atomic two LS slots; local atomics on Mali
	// cost about one, so refund the difference.
	issued := float64(p.LSSlots128) -
		float64(localAtomics)*(2-m.LocalAtomicLSSlots) +
		float64(p.PrivateAccesses)*m.PrivateLSPenalty
	if issued < 0 {
		issued = 0
	}
	// §V-D qualifiers: restrict-qualified pointer params free the LS
	// pipe from aliasing interlocks and const params skip write-path
	// coherence, each a small multiplicative occupancy discount. The
	// discount applies to issued access slots only — qualifiers do
	// nothing for cache-miss stall occupancy, so miss-bound kernels
	// (spmv's gather) keep their full miss terms.
	issued /= 1 + float64(k.RestrictParams)*m.RestrictLSFactor +
		float64(k.ConstParams)*m.ConstLSFactor
	ls := issued +
		float64(seqMisses)*m.SeqMissLSOccupancy +
		float64(rndMisses)*m.RandMissLSOccupancy

	// Latency hiding: resident threads per core bounded by register
	// demand.
	threads := m.ThreadsForHiding
	if demand := RegisterDemandOn(m, k); demand > 0 {
		if t := m.RegFileBytes / demand; t < threads {
			threads = t
		}
	}
	if threads < 2 {
		threads = 2
	}
	bytesPerCycle := m.PerCoreBandwidth / m.FreqHz
	dramCycles := float64(dramBytes) / bytesPerCycle
	latencyCycles := float64(dramBytes) / float64(m.L2Line) *
		m.DRAMLatency / threads
	memCycles := dramCycles
	if latencyCycles > memCycles {
		memCycles = latencyCycles
	}

	busy := alu
	if ls > busy {
		busy = ls
	}
	if memCycles > busy {
		busy = memCycles
	}

	barriers := float64(p.Barriers)
	overhead := m.WorkItemOverhead*float64(nWI) +
		m.WorkGroupOverhead +
		barriers*m.BarrierWICycles
	if nWI > 0 {
		overhead += barriers / float64(nWI) * m.BarrierWGCycles
	}
	return wgCost{cycles: busy + overhead, arithSlots: alu, lsSlots: ls}
}

// Run implements device.Device: serial, non-cancellable execution.
func (g *GPU) Run(ndr *device.NDRange, gmem vm.GlobalMemory) (*device.Report, error) {
	return g.RunWith(device.RunConfig{}, ndr, gmem)
}

// RunWith implements device.ContextRunner. Work-groups execute
// functionally (in parallel with a pool in rc) while their recorded
// memory traces are replayed through the stateful L2/SCU model in
// dispatch order — so the report is bit-identical regardless of
// worker count.
func (g *GPU) RunWith(rc device.RunConfig, ndr *device.NDRange, gmem vm.GlobalMemory) (*device.Report, error) {
	k := ndr.Kernel
	if k.UsesDouble && g.embedded {
		return nil, fmt.Errorf("kernel %s uses double precision but device %s lacks cl_khr_fp64 (OpenCL Embedded Profile): %w",
			k.Name, g.Name(), device.ErrOutOfResources)
	}
	if err := CheckResourcesOn(g.m, k); err != nil {
		return nil, err
	}
	device.NormalizeLocal(g, ndr)
	if err := device.ValidateNDRange(g, ndr); err != nil {
		return nil, err
	}

	m := g.m
	total := &vm.Profile{}
	obs := &observer{l2: g.l2, atomicLines: make(map[uint64]uint64)}

	// Job manager: list-schedule work-groups onto the earliest-free
	// core, preserving dispatch order — load imbalance between
	// work-groups (e.g. spmv rows of uneven length) shows up as idle
	// cores exactly like on the real job manager.
	coreClock := make([]float64, m.Cores)
	coreBusy := make([]float64, m.Cores)
	var arithSlots, lsSlots, busyCycles float64
	nWI := 1
	for d := 0; d < ndr.WorkDim; d++ {
		nWI *= ndr.Local[d]
	}

	// account prices one work-group whose accesses have just passed
	// through obs. It must run in dispatch order: the cache model, the
	// miss classifier and the core scheduler are all stateful.
	account := func(prof *vm.Profile, dram, localAtomics, seq, rnd uint64) {
		cost := g.groupCycles(k, prof, dram, nWI, localAtomics, seq, rnd)
		// Earliest-free core gets the group.
		core := 0
		for c := 1; c < m.Cores; c++ {
			if coreClock[c] < coreClock[core] {
				core = c
			}
		}
		coreClock[core] += cost.cycles
		coreBusy[core] += cost.cycles
		busyCycles += cost.cycles
		arithSlots += cost.arithSlots
		lsSlots += cost.lsSlots
		total.Add(prof)
	}

	err := device.RunGroups(rc, ndr, gmem, func(gw *device.GroupWork) error {
		obs.localBase = (1 << 44) + uint64(gw.Index)*(1<<22)
		obs.privateBase = (1 << 45) + uint64(gw.Index)*(1<<22)
		prevDram, prevLA, prevSeq, prevRnd := obs.dramBytes, obs.localAtomics, obs.seqMisses, obs.rndMisses
		gw.Trace.Replay(obs)
		gw.Trace.Release()
		account(&gw.Profile, obs.dramBytes-prevDram, obs.localAtomics-prevLA,
			obs.seqMisses-prevSeq, obs.rndMisses-prevRnd)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Device time: the slowest core, bounded below by the shared DRAM
	// channel and by SCU atomic serialization on the hottest line.
	var schedCycles float64
	activeCores := 0
	for c := 0; c < m.Cores; c++ {
		if coreClock[c] > schedCycles {
			schedCycles = coreClock[c]
		}
		if coreBusy[c] > 0 {
			activeCores++
		}
	}
	seconds := schedCycles / m.FreqHz
	if dramSec := float64(obs.dramBytes) / g.soc.DRAM.Bandwidth; dramSec > seconds {
		seconds = dramSec
	}
	var hottest uint64
	for _, n := range obs.atomicLines { // maligo:allow maporder max reduction commutes
		if n > hottest {
			hottest = n
		}
	}
	if scuSec := float64(hottest) * m.AtomicSCUCycles / m.FreqHz; scuSec > seconds {
		seconds = scuSec
	}
	seconds += m.EnqueueOverheadSec

	util, arithUtil, lsUtil := 0.0, 0.0, 0.0
	if busyCycles > 0 {
		arithUtil = arithSlots / (busyCycles * m.ArithPipes)
		lsUtil = lsSlots / busyCycles
		util = 0.65*arithUtil + 0.35*lsUtil
		if util > 1 {
			util = 1
		}
	}
	return &device.Report{
		Seconds:         seconds,
		DispatchSeconds: m.EnqueueOverheadSec,
		BusyCoreSeconds: busyCycles / m.FreqHz,
		ActiveCores:     activeCores,
		Utilization:     util,
		ArithUtil:       arithUtil,
		LSUtil:          lsUtil,
		DRAMBytes:       obs.dramBytes,
		Profile:         *total,
	}, nil
}
