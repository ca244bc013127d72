// Package tune is the cross-device autotuner: it enumerates kernel
// placements over the registered device fleet — target unit (serial
// CPU, the OpenMP cluster, or the Mali GPU), DVFS operating point,
// GPU work-group size, and §V transform pass set — runs every
// candidate through the simulator, and reports the energy-optimal and
// time-optimal placements.
//
// The search is exhaustive and deterministic: candidates are
// enumerated in a fixed order (device × target × operating point ×
// local size × pass set), every candidate's time and energy are pure
// functions of the simulated activity (power.EnergyOn — the meter's
// noise model is never consulted), and the optimum is the argmin with
// first-in-enumeration-order tie-breaking. Two runs of the same Space
// render byte-identical reports at any host worker count.
//
// When the Space names more than one VM engine, every candidate is
// additionally executed under each extra engine and the simulated
// observables (time, energy, DRAM traffic) must match the first
// engine bit-for-bit — the fleet differential check built into the
// search itself.
package tune

import (
	"fmt"
	"sort"
	"strings"

	"maligo/internal/bench"
	"maligo/internal/clc"
	"maligo/internal/clc/opt"
	"maligo/internal/core"
	"maligo/internal/harness"
	"maligo/internal/platform"
	"maligo/internal/power"
)

// Target is a schedulable unit of a SoC.
const (
	// TargetCPU runs the serial version on one CPU core.
	TargetCPU = "cpu"
	// TargetCPUCluster runs the OpenMP version on the full cluster.
	TargetCPUCluster = "cpu2"
	// TargetGPU runs the naive OpenCL version on the Mali — the
	// version the work-group-size and pass-set dimensions act on.
	TargetGPU = "gpu"
)

// PassSetAll selects the full §V transform pipeline; the empty string
// runs the kernel as written.
const PassSetAll = "all"

// Space is the candidate grid of one autotuner search. The zero value
// of every field selects a sensible default, so Space{Bench: "dmmm"}
// sweeps the whole fleet.
type Space struct {
	// Bench is the benchmark kernel to place (required).
	Bench string
	// Precision is the arithmetic precision (default F32).
	Precision bench.Precision
	// Scale multiplies the paper workload sizes (default 0.25 — the
	// placement ranking is scale-stable far below figure scale).
	Scale float64
	// Devices are registry names to sweep; empty = the whole fleet in
	// platform.Names order. Unknown names fail Run with an error
	// wrapping platform.ErrUnknownDevice.
	Devices []string
	// Targets are the units to try on each device (TargetCPU,
	// TargetCPUCluster, TargetGPU); empty = all three.
	Targets []string
	// DVFS sweeps every operating point of the active unit's ladder;
	// false pins the nominal point. Default true (zero value is
	// inverted by the NoDVFS name so the zero Space sweeps).
	NoDVFS bool
	// LocalSizes are GPU work-group-size hints to try (0 = the
	// device's own heuristic); empty = {0}. Hints the device would
	// reject (not dividing the global size, or above the device
	// maximum) fall back to the heuristic, exactly like the driver.
	LocalSizes []int
	// PassSets are §V transform selections for the GPU target: "" runs
	// the kernel as written, PassSetAll the full pipeline, and a
	// comma-separated pass list (see opt.PassNames) a subset. Empty =
	// {"", "all"}.
	PassSets []string
	// Workers is the host worker count of the NDRange engine (0 =
	// all host CPUs). Reports are bit-identical at every setting.
	Workers int
}

// Candidate is one placement the autotuner evaluated.
type Candidate struct {
	// Device is the SoC registry name.
	Device string `json:"device"`
	// Target is the unit the kernel ran on (cpu, cpu2, gpu).
	Target string `json:"target"`
	// Point is the DVFS operating point of the active unit.
	Point string `json:"point"`
	// FreqHz is that point's clock, for the report.
	FreqHz float64 `json:"freq_hz"`
	// LocalSize is the GPU work-group-size hint (0 = heuristic);
	// always 0 on CPU targets.
	LocalSize int `json:"local_size,omitempty"`
	// Passes is the transform pass set ("" = as written).
	Passes string `json:"passes,omitempty"`
}

// Outcome is one evaluated candidate.
type Outcome struct {
	Candidate
	// Supported reports whether the device/version combination can
	// run this benchmark at this precision; Reason says why not.
	Supported bool   `json:"supported"`
	Reason    string `json:"reason,omitempty"`
	// Seconds is the simulated time of the measured region.
	Seconds float64 `json:"seconds"`
	// EnergyJ is the deterministic board energy-to-solution
	// (power.EnergyOn on the DVFS-derived SoC — no meter noise).
	EnergyJ float64 `json:"energy_j"`
	// MeanPowerW is the average board power over the region.
	MeanPowerW float64 `json:"mean_power_w"`
	// DRAMBytes is the region's DRAM traffic.
	DRAMBytes uint64 `json:"dram_bytes"`
}

// Report is the full deterministic search report.
type Report struct {
	// Bench, Precision, Scale echo the search parameters.
	Bench     string  `json:"bench"`
	Precision string  `json:"precision"`
	Scale     float64 `json:"scale"`
	// Outcomes holds every candidate in enumeration order.
	Outcomes []Outcome `json:"outcomes"`
	// BestEnergy / BestTime index into Outcomes (-1 when no candidate
	// was supported): the argmin by EnergyJ / Seconds with
	// first-in-enumeration-order tie-breaking.
	BestEnergy int `json:"best_energy"`
	BestTime   int `json:"best_time"`
}

// EnergyOptimal returns the energy-optimal outcome (nil when no
// candidate was supported).
func (r *Report) EnergyOptimal() *Outcome {
	if r.BestEnergy < 0 {
		return nil
	}
	return &r.Outcomes[r.BestEnergy]
}

// TimeOptimal returns the time-optimal outcome (nil when no candidate
// was supported).
func (r *Report) TimeOptimal() *Outcome {
	if r.BestTime < 0 {
		return nil
	}
	return &r.Outcomes[r.BestTime]
}

// version maps a target to the benchmark version that runs on it.
func version(target string) (bench.Version, error) {
	switch target {
	case TargetCPU:
		return bench.Serial, nil
	case TargetCPUCluster:
		return bench.OpenMP, nil
	case TargetGPU:
		return bench.OpenCL, nil
	}
	return 0, fmt.Errorf("tune: unknown target %q (want %s, %s or %s)",
		target, TargetCPU, TargetCPUCluster, TargetGPU)
}

// parsePassSet resolves a pass-set string to the OptimizeWith
// selector: nil means "do not run the pipeline at all".
func parsePassSet(set string) (run bool, only []string, err error) {
	switch set {
	case "":
		return false, nil, nil
	case PassSetAll:
		return true, nil, nil
	}
	names := strings.Split(set, ",")
	known := map[string]bool{}
	for _, n := range opt.PassNames() {
		known[n] = true
	}
	for _, n := range names {
		if !known[strings.TrimSpace(n)] {
			return false, nil, fmt.Errorf("tune: unknown pass %q in set %q (have %s)",
				n, set, strings.Join(opt.PassNames(), ", "))
		}
	}
	return true, names, nil
}

// normalize fills the Space defaults and validates every dimension,
// returning the resolved device list.
func (s *Space) normalize() ([]*platform.SoC, error) {
	if s.Bench == "" {
		return nil, fmt.Errorf("tune: no benchmark named")
	}
	if bench.ByName(s.Bench) == nil {
		return nil, fmt.Errorf("tune: unknown benchmark %q (have %s)",
			s.Bench, strings.Join(bench.Names(), ", "))
	}
	if s.Scale == 0 {
		s.Scale = 0.25
	}
	if len(s.Devices) == 0 {
		s.Devices = platform.Names()
	}
	socs := make([]*platform.SoC, len(s.Devices))
	for i, name := range s.Devices {
		soc, err := platform.Lookup(name)
		if err != nil {
			return nil, err
		}
		socs[i] = soc
	}
	if len(s.Targets) == 0 {
		s.Targets = []string{TargetCPU, TargetCPUCluster, TargetGPU}
	}
	for _, t := range s.Targets {
		if _, err := version(t); err != nil {
			return nil, err
		}
	}
	if len(s.LocalSizes) == 0 {
		s.LocalSizes = []int{0}
	}
	for _, n := range s.LocalSizes {
		if n < 0 {
			return nil, fmt.Errorf("tune: negative local size %d", n)
		}
	}
	if len(s.PassSets) == 0 {
		s.PassSets = []string{"", PassSetAll}
	}
	for _, set := range s.PassSets {
		if _, _, err := parsePassSet(set); err != nil {
			return nil, err
		}
	}
	return socs, nil
}

// enumerate lists the candidate grid in the fixed search order:
// device × target × operating point × (GPU only: local size × pass
// set). CPU targets sweep the CPU ladder with the GPU nominal and
// vice versa — DVFS on the inactive unit only moves its idle power,
// which the board model books as static draw.
func (s *Space) enumerate(socs []*platform.SoC) []Candidate {
	var out []Candidate
	for i, soc := range socs {
		name := s.Devices[i]
		for _, target := range s.Targets {
			ladder := soc.CPU.DVFS
			if target == TargetGPU {
				ladder = soc.GPU.DVFS
			}
			if s.NoDVFS {
				ladder = ladder[:1]
			}
			for _, op := range ladder {
				if target != TargetGPU {
					out = append(out, Candidate{
						Device: name, Target: target,
						Point: op.Name, FreqHz: op.FreqHz,
					})
					continue
				}
				for _, local := range s.LocalSizes {
					for _, set := range s.PassSets {
						out = append(out, Candidate{
							Device: name, Target: target,
							Point: op.Name, FreqHz: op.FreqHz,
							LocalSize: local, Passes: set,
						})
					}
				}
			}
		}
	}
	return out
}

// Run executes the search: every candidate in the grid, in order.
func Run(space Space) (*Report, error) {
	socs, err := space.normalize()
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Bench:      space.Bench,
		Precision:  space.Precision.String(),
		Scale:      space.Scale,
		BestEnergy: -1,
		BestTime:   -1,
	}
	socByName := map[string]*platform.SoC{}
	for i, soc := range socs {
		socByName[space.Devices[i]] = soc
	}
	for _, cand := range space.enumerate(socs) {
		out, err := evaluate(space, socByName[cand.Device], cand)
		if err != nil {
			return nil, fmt.Errorf("tune: %s on %s/%s@%s: %w",
				space.Bench, cand.Device, cand.Target, cand.Point, err)
		}
		rep.Outcomes = append(rep.Outcomes, *out)
	}
	for i, o := range rep.Outcomes {
		if !o.Supported {
			continue
		}
		if rep.BestEnergy < 0 || o.EnergyJ < rep.Outcomes[rep.BestEnergy].EnergyJ {
			rep.BestEnergy = i
		}
		if rep.BestTime < 0 || o.Seconds < rep.Outcomes[rep.BestTime].Seconds {
			rep.BestTime = i
		}
	}
	return rep, nil
}

// evaluate runs one candidate and prices its measured region on the
// DVFS-derived SoC.
func evaluate(space Space, soc *platform.SoC, cand Candidate) (*Outcome, error) {
	out := &Outcome{Candidate: cand}
	b := bench.ByName(space.Bench)
	v, err := version(cand.Target)
	if err != nil {
		return nil, err
	}
	if ok, reason := b.Supported(space.Precision, v); !ok {
		out.Reason = reason
		return out, nil
	}
	if v.IsGPU() && space.Precision == bench.F64 && !soc.GPU.FP64 {
		out.Reason = fmt.Sprintf("%s has no cl_khr_fp64", soc.GPU.Name)
		return out, nil
	}
	derived, err := derive(soc, cand)
	if err != nil {
		return nil, err
	}
	act, err := measure(space, derived, cand, b, v)
	if err != nil {
		return nil, err
	}
	out.Supported = true
	out.Seconds = act.Seconds
	out.EnergyJ = power.EnergyOn(derived, act)
	out.MeanPowerW = power.MeanPowerOn(derived, act)
	out.DRAMBytes = act.DRAMBytes
	return out, nil
}

// derive moves the SoC to the candidate's operating point: the active
// unit to the named point, the inactive unit pinned nominal.
func derive(soc *platform.SoC, cand Candidate) (*platform.SoC, error) {
	if cand.Target == TargetGPU {
		return soc.AtNamed("", cand.Point)
	}
	return soc.AtNamed(cand.Point, "")
}

// measure runs the candidate once: compile (routing GPU candidates
// through the selected transform passes), measure the steady-state
// region by the figure harness's protocol (harness.MeasureRegion) and
// verify. It returns the region's activity.
func measure(space Space, soc *platform.SoC, cand Candidate, b bench.Benchmark, v bench.Version) (power.Activity, error) {
	irProg, err := clc.Compile(space.Bench+".cl", b.Source(), space.Precision.BuildOptions())
	if err != nil {
		return power.Activity{}, err
	}
	if run, only, err := parsePassSet(cand.Passes); err != nil {
		return power.Activity{}, err
	} else if run && v.IsGPU() {
		irProg, _, err = opt.OptimizeWith(irProg, only)
		if err != nil {
			return power.Activity{}, err
		}
	}

	p := core.NewPlatformWith(core.Options{Workers: space.Workers, SoC: soc})
	defer p.Close()
	if cand.LocalSize > 0 {
		p.GPU.SetLocalSizeHint(cand.LocalSize)
	}
	prog := p.Context.CreateProgramFromIR(irProg, b.Source())
	if err := b.Setup(p.Context, space.Precision, space.Scale); err != nil {
		return power.Activity{}, err
	}
	r, err := harness.MeasureRegion(p.Context.CreateCommandQueue(harness.VersionDevice(p, v)), b, prog, v, false)
	if err != nil {
		return power.Activity{}, err
	}
	if err := b.Verify(space.Precision); err != nil {
		return power.Activity{}, fmt.Errorf("verification: %w", err)
	}
	return r.Activity, nil
}

// Targets returns the valid target names in enumeration order.
func Targets() []string { return []string{TargetCPU, TargetCPUCluster, TargetGPU} }

// sortedOutcomes returns outcome indices ordered by energy (ascending,
// unsupported last, enumeration order breaking ties) — the report's
// ranking view.
func sortedOutcomes(outs []Outcome) []int {
	idx := make([]int, len(outs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, bi int) bool {
		oa, ob := outs[idx[a]], outs[idx[bi]]
		if oa.Supported != ob.Supported {
			return oa.Supported
		}
		if !oa.Supported {
			return false
		}
		return oa.EnergyJ < ob.EnergyJ
	})
	return idx
}
