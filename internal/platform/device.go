// Device-model schema: every number the timing, cache, DRAM and power
// models consume, packaged as data instead of package-level constants
// so the simulator can host a heterogeneous fleet of SoCs. The Exynos
// 5250 constants in exynos5250.go remain the calibration reference —
// the registered "exynos5250" SoC is built verbatim from them, so the
// refactor is bit-identical to the original single-platform build —
// and additional boards (exynos5422.go) are pure data.
//
// DVFS: every CPU and GPU model carries a ladder of operating points
// (frequency/voltage pairs); the first entry is the nominal point the
// calibration numbers were taken at. AtPoint derives a scaled model:
//
//   - the clock changes, so cycle counts translate to different
//     seconds;
//   - latencies that are fixed in *time* on the far side of the clock
//     domain (DRAM load-to-use) are rescaled into the new clock's
//     cycles;
//   - bandwidths (DRAM-side) do not change.
//
// SoC.At additionally scales the board power model: busy-power terms
// of a scaled unit are multiplied by (f/f0)·(V/V0)² — the classic
// dynamic CMOS power ratio — while board static power and DRAM energy
// per byte stay put. Deriving a model at its nominal point returns
// bit-identical numbers (every scale factor is exactly 1.0).
package platform

import "fmt"

// OperatingPoint is one DVFS state of a clocked unit.
type OperatingPoint struct {
	// Name labels the point in reports ("1700MHz", "nominal"...).
	Name string `json:"name"`
	// FreqHz is the unit clock at this point.
	FreqHz float64 `json:"freq_hz"`
	// Voltage is the supply voltage at this point (volts); it feeds
	// the (f/f0)·(V/V0)² busy-power scaling.
	Voltage float64 `json:"voltage"`
}

// CPUModel carries every number the cpu timing model consumes for one
// CPU cluster. Field names mirror the CPU* calibration constants of
// the Exynos 5250 (exynos5250.go), which document the semantics.
type CPUModel struct {
	// Name is the microarchitecture label ("Cortex-A15").
	Name string `json:"name"`
	// FreqHz is the nominal core clock (equal to DVFS[0].FreqHz).
	FreqHz float64 `json:"freq_hz"`
	// Cores is the cluster's core count.
	Cores int `json:"cores"`

	IssueWidth         float64 `json:"issue_width"`
	InstrFactor        float64 `json:"instr_factor"`
	IntALUs            float64 `json:"int_alus"`
	F64Factor          float64 `json:"f64_factor"`
	TranscCycles       float64 `json:"transc_cycles"`
	L2HitLatency       float64 `json:"l2_hit_latency"`
	DRAMLatency        float64 `json:"dram_latency"`
	L2HideFactor       float64 `json:"l2_hide_factor"`
	DRAMHideFactor     float64 `json:"dram_hide_factor"`
	PrefetchHideFactor float64 `json:"prefetch_hide_factor"`
	PerCoreBandwidth   float64 `json:"per_core_bandwidth"`
	ClusterBandwidth   float64 `json:"cluster_bandwidth"`
	OMPOverheadSec     float64 `json:"omp_overhead_sec"`

	// Cache geometry (sizes in bytes).
	L1Size int `json:"l1_size"`
	L1Line int `json:"l1_line"`
	L1Ways int `json:"l1_ways"`
	L2Size int `json:"l2_size"`
	L2Line int `json:"l2_line"`
	L2Ways int `json:"l2_ways"`

	// DVFS is the operating-point ladder, nominal first.
	DVFS []OperatingPoint `json:"dvfs"`
}

// GPUModel carries every number the mali timing model consumes for
// one GPU. Field names mirror the GPU* calibration constants of the
// Exynos 5250 (exynos5250.go), which document the semantics.
type GPUModel struct {
	// Name is the device label ("Mali-T604").
	Name string `json:"name"`
	// FreqHz is the nominal shader clock (equal to DVFS[0].FreqHz).
	FreqHz float64 `json:"freq_hz"`
	// Cores is the shader-core count.
	Cores int `json:"cores"`

	ArithPipes           float64 `json:"arith_pipes"`
	PackEff              float64 `json:"pack_eff"`
	IntCostFactor        float64 `json:"int_cost_factor"`
	TranscSlotCost       float64 `json:"transc_slot_cost"`
	PrivateLSPenalty     float64 `json:"private_ls_penalty"`
	WorkItemOverhead     float64 `json:"work_item_overhead"`
	WorkGroupOverhead    float64 `json:"work_group_overhead"`
	EnqueueOverheadSec   float64 `json:"enqueue_overhead_sec"`
	BarrierWICycles      float64 `json:"barrier_wi_cycles"`
	BarrierWGCycles      float64 `json:"barrier_wg_cycles"`
	SeqMissLSOccupancy   float64 `json:"seq_miss_ls_occupancy"`
	RandMissLSOccupancy  float64 `json:"rand_miss_ls_occupancy"`
	RestrictLSFactor     float64 `json:"restrict_ls_factor"`
	ConstLSFactor        float64 `json:"const_ls_factor"`
	L2HitLatency         float64 `json:"l2_hit_latency"`
	DRAMLatency          float64 `json:"dram_latency"`
	ThreadsForHiding     float64 `json:"threads_for_hiding"`
	RegFileBytes         float64 `json:"reg_file_bytes"`
	RegFootprintScale    float64 `json:"reg_footprint_scale"`
	MaxRegBytesPerThread float64 `json:"max_reg_bytes_per_thread"`
	PerCoreBandwidth     float64 `json:"per_core_bandwidth"`
	AtomicSCUCycles      float64 `json:"atomic_scu_cycles"`
	LocalAtomicLSSlots   float64 `json:"local_atomic_ls_slots"`
	MaxWorkGroupSize     int     `json:"max_work_group_size"`
	// FP64 reports cl_khr_fp64 (OpenCL Full Profile) support.
	FP64 bool `json:"fp64"`

	// Shared L2 geometry (bytes).
	L2Size int `json:"l2_size"`
	L2Line int `json:"l2_line"`
	L2Ways int `json:"l2_ways"`

	// DVFS is the operating-point ladder, nominal first.
	DVFS []OperatingPoint `json:"dvfs"`
}

// DRAMModel is the memory-channel model of a board.
type DRAMModel struct {
	// Name labels the configuration ("DDR3L-1600 1x32").
	Name string `json:"name"`
	// PeakBandwidth is the theoretical channel peak (bytes/s).
	PeakBandwidth float64 `json:"peak_bandwidth"`
	// Efficiency derates the peak for row misses and refresh.
	Efficiency float64 `json:"efficiency"`
	// Bandwidth is the sustainable channel bandwidth (bytes/s). It is
	// stored, not derived at load time, so the exact float64 the
	// timing model divides by is pinned in the golden files.
	Bandwidth float64 `json:"bandwidth"`
}

// PowerModel is the board-level power model. Total board power is
//
//	P = BoardStatic
//	  + Σ_cores (CPUCoreBase + CPUCoreDynamic·util)·active
//	  + (GPUBase + GPUDynamic·util)·gpuActive
//	  + DRAMPerGBs·(GB/s of DRAM traffic)
type PowerModel struct {
	BoardStatic    float64 `json:"board_static"`
	CPUCoreBase    float64 `json:"cpu_core_base"`
	CPUCoreDynamic float64 `json:"cpu_core_dynamic"`
	CPUIdleHost    float64 `json:"cpu_idle_host"`
	GPUBase        float64 `json:"gpu_base"`
	GPUDynamic     float64 `json:"gpu_dynamic"`
	DRAMPerGBs     float64 `json:"dram_per_gbs"`
}

// MeterModel describes the board's power-measurement instrument.
type MeterModel struct {
	SampleHz    float64 `json:"sample_hz"`
	Accuracy    float64 `json:"accuracy"`
	Repetitions int     `json:"repetitions"`
}

// SoC is one complete registered board model: a CPU cluster, a GPU,
// the shared DRAM channel, the board power model and the measurement
// instrument. Devices constructed from a SoC (cpu.NewOn, mali.NewOn)
// and the power functions taking one (power.MeanPowerOn) consume only
// these numbers — a SoC is the entire calibration surface of a board.
type SoC struct {
	// Name is the registry key ("exynos5250").
	Name string `json:"name"`
	// Description is a one-line board summary for listings.
	Description string `json:"description"`

	CPU   *CPUModel  `json:"cpu"`
	GPU   *GPUModel  `json:"gpu"`
	DRAM  DRAMModel  `json:"dram"`
	Power PowerModel `json:"power"`
	Meter MeterModel `json:"meter"`
}

// Nominal returns the model's nominal operating point (the ladder
// head, which Validate pins to FreqHz).
func (m *CPUModel) Nominal() OperatingPoint { return m.DVFS[0] }

// Nominal returns the model's nominal operating point.
func (m *GPUModel) Nominal() OperatingPoint { return m.DVFS[0] }

// Point finds an operating point by name.
func (m *CPUModel) Point(name string) (OperatingPoint, error) {
	return findPoint(m.DVFS, m.Name, name)
}

// Point finds an operating point by name.
func (m *GPUModel) Point(name string) (OperatingPoint, error) {
	return findPoint(m.DVFS, m.Name, name)
}

func findPoint(pts []OperatingPoint, unit, name string) (OperatingPoint, error) {
	for _, op := range pts {
		if op.Name == name {
			return op, nil
		}
	}
	return OperatingPoint{}, fmt.Errorf("unit %s has no operating point %q", unit, name)
}

// AtPoint derives the model running at the given operating point. The
// core clock changes; the DRAM load-to-use latency — fixed in time on
// the far side of the clock-domain crossing — is rescaled into the
// new clock's cycles; the OpenMP fork/join overhead (CPU work) takes
// proportionally longer in seconds at a lower clock. Deriving at the
// nominal point returns a bit-identical model.
func (m *CPUModel) AtPoint(op OperatingPoint) *CPUModel {
	fr := op.FreqHz / m.FreqHz
	d := *m
	d.FreqHz = op.FreqHz
	d.DRAMLatency = m.DRAMLatency * fr
	d.OMPOverheadSec = m.OMPOverheadSec / fr
	return &d
}

// AtPoint derives the model running at the given operating point (see
// CPUModel.AtPoint; the enqueue overhead is host-side work, so it
// does not scale with the GPU clock).
func (m *GPUModel) AtPoint(op OperatingPoint) *GPUModel {
	fr := op.FreqHz / m.FreqHz
	d := *m
	d.FreqHz = op.FreqHz
	d.DRAMLatency = m.DRAMLatency * fr
	return &d
}

// powerRatio is the busy-power scale factor of a unit moved from its
// nominal point to op: (f/f0)·(V/V0)².
func powerRatio(nom, op OperatingPoint) float64 {
	vr := op.Voltage / nom.Voltage
	return (op.FreqHz / nom.FreqHz) * vr * vr
}

// At derives the SoC with its CPU cluster and GPU each moved to the
// given operating points: the unit models are rescaled via AtPoint
// and their busy-power terms in the board power model are multiplied
// by the (f/f0)·(V/V0)² dynamic-power ratio. Board static power and
// DRAM energy per byte are unchanged — which is exactly why racing to
// idle wins on these boards: finishing later keeps the whole board's
// static draw integrating. At the nominal points the derived SoC is
// bit-identical to the original.
func (s *SoC) At(cpuOP, gpuOP OperatingPoint) *SoC {
	d := *s
	d.CPU = s.CPU.AtPoint(cpuOP)
	d.GPU = s.GPU.AtPoint(gpuOP)
	cr := powerRatio(s.CPU.Nominal(), cpuOP)
	gr := powerRatio(s.GPU.Nominal(), gpuOP)
	d.Power.CPUCoreBase = s.Power.CPUCoreBase * cr
	d.Power.CPUCoreDynamic = s.Power.CPUCoreDynamic * cr
	d.Power.CPUIdleHost = s.Power.CPUIdleHost * cr
	d.Power.GPUBase = s.Power.GPUBase * gr
	d.Power.GPUDynamic = s.Power.GPUDynamic * gr
	return &d
}

// AtNamed is At with operating points selected by name; empty names
// keep the nominal point.
func (s *SoC) AtNamed(cpuPoint, gpuPoint string) (*SoC, error) {
	cpuOP, gpuOP := s.CPU.Nominal(), s.GPU.Nominal()
	var err error
	if cpuPoint != "" {
		if cpuOP, err = s.CPU.Point(cpuPoint); err != nil {
			return nil, fmt.Errorf("soc %s: %w", s.Name, err)
		}
	}
	if gpuPoint != "" {
		if gpuOP, err = s.GPU.Point(gpuPoint); err != nil {
			return nil, fmt.Errorf("soc %s: %w", s.Name, err)
		}
	}
	return s.At(cpuOP, gpuOP), nil
}

// minLineBytes is the smallest cache line the timing models accept: a
// memory trace folds consecutive accesses within one 64-byte block
// into a single record (internal/vm), which holds only if each such
// block lies within one line.
const minLineBytes = 64

// Validate checks the structural invariants every registered SoC must
// hold: named, complete, positive clocks and core counts, cache
// geometries the cache model can run, and a DVFS ladder whose head is
// the nominal point the calibration numbers were taken at.
func (s *SoC) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("soc has no name")
	}
	if s.CPU == nil || s.GPU == nil {
		return fmt.Errorf("soc %s: missing CPU or GPU model", s.Name)
	}
	if s.CPU.Cores < 1 || s.GPU.Cores < 1 {
		return fmt.Errorf("soc %s: non-positive core count", s.Name)
	}
	if s.DRAM.Bandwidth <= 0 {
		return fmt.Errorf("soc %s: non-positive DRAM bandwidth", s.Name)
	}
	for _, c := range []struct {
		name             string
		size, line, ways int
	}{
		{s.CPU.Name + " L1", s.CPU.L1Size, s.CPU.L1Line, s.CPU.L1Ways},
		{s.CPU.Name + " L2", s.CPU.L2Size, s.CPU.L2Line, s.CPU.L2Ways},
		{s.GPU.Name + " L2", s.GPU.L2Size, s.GPU.L2Line, s.GPU.L2Ways},
	} {
		switch {
		case c.line < minLineBytes || c.line&(c.line-1) != 0:
			return fmt.Errorf("soc %s: %s line size %d is not a power of two of at least %d bytes",
				s.Name, c.name, c.line, minLineBytes)
		case c.ways < 1:
			return fmt.Errorf("soc %s: %s has %d ways", s.Name, c.name, c.ways)
		case c.size <= 0 || c.size%(c.line*c.ways) != 0:
			return fmt.Errorf("soc %s: %s size %d is not a positive multiple of line x ways (%d)",
				s.Name, c.name, c.size, c.line*c.ways)
		}
	}
	if err := validateDVFS(s.CPU.Name, s.CPU.FreqHz, s.CPU.DVFS); err != nil {
		return fmt.Errorf("soc %s: %w", s.Name, err)
	}
	if err := validateDVFS(s.GPU.Name, s.GPU.FreqHz, s.GPU.DVFS); err != nil {
		return fmt.Errorf("soc %s: %w", s.Name, err)
	}
	return nil
}

func validateDVFS(unit string, nominalHz float64, pts []OperatingPoint) error {
	if len(pts) == 0 {
		return fmt.Errorf("unit %s has no operating points", unit)
	}
	if pts[0].FreqHz != nominalHz {
		return fmt.Errorf("unit %s: ladder head %v Hz is not the nominal %v Hz",
			unit, pts[0].FreqHz, nominalHz)
	}
	seen := map[string]bool{}
	for _, op := range pts {
		if op.Name == "" || op.FreqHz <= 0 || op.Voltage <= 0 {
			return fmt.Errorf("unit %s: malformed operating point %+v", unit, op)
		}
		if seen[op.Name] {
			return fmt.Errorf("unit %s: duplicate operating point %q", unit, op.Name)
		}
		seen[op.Name] = true
	}
	return nil
}
