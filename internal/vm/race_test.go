package vm_test

import (
	"testing"

	"maligo/internal/clc/ir"
	"maligo/internal/vm"
)

// runGroupTraced executes one work-group against a detail trace and
// feeds it to a fresh race detector.
func runGroupTraced(t *testing.T, k *ir.Kernel, local int, args []vm.ArgValue, mem vm.GlobalMemory) []vm.DataRace {
	t.Helper()
	tr := vm.NewTrace()
	defer tr.Release()
	tr.EnableDetail()
	cfg := &vm.GroupConfig{
		Kernel:     k,
		WorkDim:    1,
		LocalSize:  [3]int{local, 1, 1},
		GlobalSize: [3]int{local, 1, 1},
		Args:       args,
		Mem:        mem,
		Observer:   tr,
	}
	prof := &vm.Profile{}
	if err := vm.RunGroup(cfg, prof); err != nil {
		t.Fatalf("RunGroup: %v", err)
	}
	det := &vm.RaceDetector{Kernel: k.Name}
	det.ObserveGroup([3]int{0, 0, 0}, tr)
	return det.Races()
}

const raceLocalSrc = `
__kernel void shift(__global float* out, __local float* tile) {
    int lid = get_local_id(0);
    tile[lid] = (float)lid;
    out[get_global_id(0)] = tile[lid + 1];
}

__kernel void shift_fixed(__global float* out, __local float* tile) {
    int lid = get_local_id(0);
    tile[lid] = (float)lid;
    barrier(CLK_LOCAL_MEM_FENCE);
    out[get_global_id(0)] = tile[lid + 1];
}
`

func TestRaceDetectorLocalShift(t *testing.T) {
	prog := mustCompile(t, raceLocalSrc, "")
	const local = 8
	mem := newFlatMem(4096, nil)
	args := []vm.ArgValue{
		{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)},
		{LocalSize: (local + 1) * 4},
	}

	races := runGroupTraced(t, prog.Kernel("shift"), local, args, mem)
	if len(races) == 0 {
		t.Fatal("unsynchronized neighbour read: no race detected")
	}
	r := races[0]
	if r.Space != ir.SpaceLocal {
		t.Errorf("race space = %d, want local: %v", r.Space, r)
	}
	if r.ItemA == r.ItemB {
		t.Errorf("race between a work-item and itself: %v", r)
	}
	if !r.WriteA && !r.WriteB {
		t.Errorf("read/read pair reported as race: %v", r)
	}
	if r.LineA == 0 || r.LineB == 0 {
		t.Errorf("race lost source positions: %v", r)
	}
	if r.Kernel != "shift" {
		t.Errorf("race kernel = %q, want shift", r.Kernel)
	}

	// The barrier separates the write phase from the read phase: the
	// same access pattern must come back clean.
	races = runGroupTraced(t, prog.Kernel("shift_fixed"), local, args, mem)
	if len(races) != 0 {
		t.Fatalf("barrier-synchronized kernel reported racy: %v", races)
	}
}

const raceGlobalSrc = `
__kernel void clobber(__global int* out) {
    out[0] = (int)get_local_id(0);
}

__kernel void counter(__global int* out) {
    atomic_add(&out[0], 1);
}
`

func TestRaceDetectorGlobalAndAtomics(t *testing.T) {
	prog := mustCompile(t, raceGlobalSrc, "")
	mem := newFlatMem(4096, nil)
	args := []vm.ArgValue{{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)}}

	races := runGroupTraced(t, prog.Kernel("clobber"), 4, args, mem)
	if len(races) == 0 {
		t.Fatal("conflicting stores to out[0] not detected")
	}
	if r := races[0]; !r.WriteA || !r.WriteB || r.Space != ir.SpaceGlobal {
		t.Errorf("expected global write/write race, got %v", r)
	}

	// Atomic read-modify-writes on the same counter are synchronized by
	// definition and must not be reported.
	races = runGroupTraced(t, prog.Kernel("counter"), 4, args, mem)
	if len(races) != 0 {
		t.Fatalf("atomic counter reported racy: %v", races)
	}
}

// TestRaceDetectorIgnoresPlainTrace checks that a trace recorded
// without detail mode (the normal timing path) yields nothing — the
// detector must not guess attributions.
func TestRaceDetectorIgnoresPlainTrace(t *testing.T) {
	prog := mustCompile(t, raceGlobalSrc, "")
	mem := newFlatMem(4096, nil)
	tr := vm.NewTrace()
	defer tr.Release()
	cfg := &vm.GroupConfig{
		Kernel:     prog.Kernel("clobber"),
		WorkDim:    1,
		LocalSize:  [3]int{4, 1, 1},
		GlobalSize: [3]int{4, 1, 1},
		Args:       []vm.ArgValue{{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)}},
		Mem:        mem,
		Observer:   tr,
	}
	if err := vm.RunGroup(cfg, &vm.Profile{}); err != nil {
		t.Fatal(err)
	}
	det := &vm.RaceDetector{Kernel: "clobber"}
	det.ObserveGroup([3]int{0, 0, 0}, tr)
	if races := det.Races(); len(races) != 0 {
		t.Fatalf("detail-less trace produced races: %v", races)
	}
}

// TestDetailTraceReplaysPlainStream checks that a detail trace records
// the attributions the race detector needs, and that replaying it into
// a plain observer sees the same memory events as a plain trace of the
// same group.
func TestDetailTraceReplaysPlainStream(t *testing.T) {
	prog := mustCompile(t, raceLocalSrc, "")
	const local = 8
	mem := newFlatMem(4096, nil)
	args := []vm.ArgValue{
		{Bits: ir.EncodeAddr(ir.SpaceGlobal, 0)},
		{LocalSize: (local + 1) * 4},
	}

	plain := vm.NewTrace()
	detail := vm.NewTrace()
	detail.EnableDetail()
	defer plain.Release()
	defer detail.Release()
	for _, tr := range []*vm.Trace{plain, detail} {
		cfg := &vm.GroupConfig{
			Kernel:     prog.Kernel("shift"),
			WorkDim:    1,
			LocalSize:  [3]int{local, 1, 1},
			GlobalSize: [3]int{local, 1, 1},
			Args:       args,
			Mem:        mem,
			Observer:   tr,
		}
		if err := vm.RunGroup(cfg, &vm.Profile{}); err != nil {
			t.Fatal(err)
		}
	}
	det := &vm.RaceDetector{Kernel: "shift"}
	det.ObserveGroup([3]int{0, 0, 0}, detail)
	if len(det.Races()) == 0 {
		t.Fatal("detail trace lost context: no race detected")
	}

	// Replay of the detailed trace must reproduce exactly the plain
	// trace's event stream (context records are skipped).
	replayed := vm.NewTrace()
	defer replayed.Release()
	detail.Replay(replayed)
	if replayed.Len() != plain.Len() {
		t.Fatalf("replayed detailed trace has %d events, plain observation %d", replayed.Len(), plain.Len())
	}
}
