package tune

import (
	"bytes"
	"errors"
	"testing"

	"maligo/internal/bench"
	"maligo/internal/platform"
	"maligo/internal/vm"
)

// smallSpace is a cheap two-device space used by most properties.
func smallSpace() Space {
	return Space{
		Bench:   "vecop",
		Scale:   0.05,
		Devices: []string{"exynos5250", "exynos5422"},
	}
}

// TestAutotuneDeterministic runs the same search twice and at two
// host worker counts and requires the rendered report and the JSON
// form to be byte-for-byte identical — the autotuner's core contract.
func TestAutotuneDeterministic(t *testing.T) {
	ref, err := Run(smallSpace())
	if err != nil {
		t.Fatal(err)
	}
	refText, refJSON := ref.Render(), mustJSON(t, ref)
	for name, space := range map[string]Space{
		"again":     smallSpace(),
		"workers=1": withWorkers(smallSpace(), 1),
		"workers=3": withWorkers(smallSpace(), 3),
	} {
		got, err := Run(space)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Render() != refText {
			t.Errorf("%s: rendered report differs:\n--- ref\n%s\n--- got\n%s", name, refText, got.Render())
		}
		if !bytes.Equal(mustJSON(t, got), refJSON) {
			t.Errorf("%s: JSON report differs", name)
		}
	}
}

func withWorkers(s Space, n int) Space { s.Workers = n; return s }

func mustJSON(t *testing.T, r *Report) []byte {
	t.Helper()
	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestAutotuneArgmin checks the returned optima against a direct scan
// of the outcome table: BestEnergy/BestTime must be the argmin over
// the supported candidates with first-in-enumeration-order ties.
func TestAutotuneArgmin(t *testing.T) {
	rep, err := Run(smallSpace())
	if err != nil {
		t.Fatal(err)
	}
	checkArgmin(t, rep)
}

// checkArgmin asserts the report's optima are true argmins (shared
// with the fuzz target).
func checkArgmin(t *testing.T, rep *Report) {
	t.Helper()
	bestE, bestT := -1, -1
	for i, o := range rep.Outcomes {
		if !o.Supported {
			continue
		}
		if bestE < 0 || o.EnergyJ < rep.Outcomes[bestE].EnergyJ {
			bestE = i
		}
		if bestT < 0 || o.Seconds < rep.Outcomes[bestT].Seconds {
			bestT = i
		}
	}
	if rep.BestEnergy != bestE {
		t.Errorf("BestEnergy = %d, argmin scan says %d", rep.BestEnergy, bestE)
	}
	if rep.BestTime != bestT {
		t.Errorf("BestTime = %d, argmin scan says %d", rep.BestTime, bestT)
	}
	if bestE >= 0 {
		e := rep.EnergyOptimal()
		for _, o := range rep.Outcomes {
			if o.Supported && o.EnergyJ < e.EnergyJ {
				t.Errorf("outcome %+v beats the energy optimum %+v", o.Candidate, e.Candidate)
			}
		}
	}
}

// TestDVFSMonotonicity pins the race-to-idle sanity property: on a
// compute-bound kernel (nbody — arithmetic-dominated on every unit),
// running slower never saves energy, because the board's static draw
// keeps integrating while the V² dynamic savings are bounded by the
// ladder's voltage floor. Every device, every target, full ladders.
func TestDVFSMonotonicity(t *testing.T) {
	rep, err := Run(Space{Bench: "nbody", Scale: 0.05, PassSets: []string{""}})
	if err != nil {
		t.Fatal(err)
	}
	type group struct {
		device, target string
		local          int
		passes         string
	}
	lastE := map[group]float64{}
	lastF := map[group]float64{}
	lastP := map[group]string{}
	for _, o := range rep.Outcomes {
		if !o.Supported {
			continue
		}
		g := group{o.Device, o.Target, o.LocalSize, o.Passes}
		if f, seen := lastF[g]; seen {
			if o.FreqHz >= f {
				t.Fatalf("%s/%s: ladder not enumerated nominal-first (%v after %v Hz)",
					o.Device, o.Target, o.FreqHz, f)
			}
			if o.EnergyJ < lastE[g] {
				t.Errorf("%s/%s: %s (%.6g J) beats %s (%.6g J) — slowing down saved energy on a compute-bound kernel",
					o.Device, o.Target, o.Point, o.EnergyJ, lastP[g], lastE[g])
			}
		}
		lastE[g], lastF[g], lastP[g] = o.EnergyJ, o.FreqHz, o.Point
	}
	if len(lastE) == 0 {
		t.Fatal("no supported outcomes")
	}
}

// TestAutotuneEngineDifferential turns the built-in cross-engine
// check on: every candidate runs under the interpreter oracle and the
// compiled engine, and Run fails unless both agree bit-for-bit on
// every simulated observable the search scores.
func TestAutotuneEngineDifferential(t *testing.T) {
	space := smallSpace()
	space.Engines = []vm.Engine{vm.EngineInterp, vm.EngineCompiled}
	rep, err := Run(space)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Engines) != 2 {
		t.Fatalf("engines = %v", rep.Engines)
	}
}

// TestLocalSizeDimension checks the work-group-size dimension reaches
// the device: on dmmm (2D matrix multiply) a forced tiny local size
// must change the GPU timing versus the device heuristic.
func TestLocalSizeDimension(t *testing.T) {
	rep, err := Run(Space{
		Bench:      "dmmm",
		Scale:      0.05,
		Devices:    []string{"exynos5250"},
		Targets:    []string{TargetGPU},
		NoDVFS:     true,
		LocalSizes: []int{0, 4},
		PassSets:   []string{""},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outcomes) != 2 {
		t.Fatalf("want 2 outcomes, got %d", len(rep.Outcomes))
	}
	auto, forced := rep.Outcomes[0], rep.Outcomes[1]
	if !auto.Supported || !forced.Supported {
		t.Fatalf("unsupported outcomes: %+v %+v", auto, forced)
	}
	if auto.Seconds == forced.Seconds {
		t.Errorf("local size hint had no effect: both %.9g s", auto.Seconds)
	}
}

// TestSpaceErrors pins the typed search-space errors.
func TestSpaceErrors(t *testing.T) {
	if _, err := Run(Space{Bench: "vecop", Devices: []string{"pi-zero"}}); !errors.Is(err, platform.ErrUnknownDevice) {
		t.Errorf("unknown device: got %v, want ErrUnknownDevice", err)
	}
	if _, err := Run(Space{Bench: "no-such-kernel"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := Run(Space{Bench: "vecop", Targets: []string{"npu"}}); err == nil {
		t.Error("unknown target accepted")
	}
	if _, err := Run(Space{Bench: "vecop", PassSets: []string{"no-such-pass"}}); err == nil {
		t.Error("unknown pass set accepted")
	}
	if _, err := Run(Space{}); err == nil {
		t.Error("empty bench accepted")
	}
}

// TestUnsupportedCandidatesReported checks n/a candidates stay in the
// report (with a reason) rather than vanishing: amcd reproduces the
// paper's double-precision driver-bug artifact, so every GPU
// candidate at F64 must be present and unsupported.
func TestUnsupportedCandidatesReported(t *testing.T) {
	rep, err := Run(Space{
		Bench:     "amcd",
		Precision: bench.F64,
		Scale:     0.05,
		Devices:   []string{"exynos5250"},
		Targets:   []string{TargetGPU},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outcomes) == 0 {
		t.Fatal("no outcomes")
	}
	for _, o := range rep.Outcomes {
		if o.Supported || o.Reason == "" {
			t.Errorf("F64 amcd GPU candidate should be unsupported with a reason: %+v", o)
		}
	}
	if rep.BestEnergy != -1 || rep.BestTime != -1 {
		t.Errorf("optima over an all-unsupported table: E=%d T=%d", rep.BestEnergy, rep.BestTime)
	}
	if rep.EnergyOptimal() != nil || rep.TimeOptimal() != nil {
		t.Error("optimal accessors should be nil")
	}
}

// FuzzAutotune drives randomized small search spaces through the
// tuner and checks the invariants that must hold for every input:
// the search either fails cleanly or returns a report whose optima
// are true argmins and whose rendering is deterministic across a
// re-run at a different worker count.
func FuzzAutotune(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(2), false)
	f.Add(uint8(1), uint8(5), uint8(64), true)
	f.Add(uint8(2), uint8(3), uint8(16), false)
	f.Fuzz(func(t *testing.T, devSel, benchSel, local uint8, noDVFS bool) {
		devices := platform.Names()
		benches := []string{"vecop", "red", "hist"}
		space := Space{
			Bench:      benches[int(benchSel)%len(benches)],
			Scale:      0.05,
			Devices:    []string{devices[int(devSel)%len(devices)]},
			LocalSizes: []int{int(local)},
			PassSets:   []string{""},
			NoDVFS:     noDVFS,
			Workers:    1,
		}
		rep, err := Run(space)
		if err != nil {
			t.Fatalf("a well-formed space must not fail: %v", err)
		}
		checkArgmin(t, rep)
		space.Workers = 2
		rep2, err := Run(space)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Render() != rep2.Render() {
			t.Errorf("report differs across worker counts:\n--- w1\n%s\n--- w2\n%s", rep.Render(), rep2.Render())
		}
	})
}

// TestEnumerationOrder pins the candidate order the report contract
// depends on: device × target × ladder point (× local × pass set).
func TestEnumerationOrder(t *testing.T) {
	s := Space{
		Bench:      "vecop",
		Devices:    []string{"exynos5250"},
		Targets:    []string{TargetCPU, TargetGPU},
		LocalSizes: []int{0, 32},
		PassSets:   []string{"", PassSetAll},
	}
	socs, err := s.normalize()
	if err != nil {
		t.Fatal(err)
	}
	cands := s.enumerate(socs)
	soc := socs[0]
	want := len(soc.CPU.DVFS) + len(soc.GPU.DVFS)*2*2
	if len(cands) != want {
		t.Fatalf("got %d candidates, want %d", len(cands), want)
	}
	// CPU candidates come first, ladder in declaration order.
	for i, op := range soc.CPU.DVFS {
		c := cands[i]
		if c.Target != TargetCPU || c.Point != op.Name {
			t.Errorf("candidate %d = %+v, want cpu@%s", i, c, op.Name)
		}
	}
	// Then GPU: point-major, local, pass set innermost.
	c := cands[len(soc.CPU.DVFS)]
	if c.Target != TargetGPU || c.Point != soc.GPU.DVFS[0].Name || c.LocalSize != 0 || c.Passes != "" {
		t.Errorf("first GPU candidate = %+v", c)
	}
}

// TestBenchmarkNamesValid guards the fuzz corpus benchmarks.
func TestBenchmarkNamesValid(t *testing.T) {
	for _, name := range []string{"vecop", "red", "hist", "nbody", "dmmm", "amcd"} {
		if bench.ByName(name) == nil {
			t.Errorf("benchmark %q no longer registered", name)
		}
	}
}
