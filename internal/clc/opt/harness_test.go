package opt

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"maligo/internal/clc"
	"maligo/internal/clc/ir"
	"maligo/internal/vm"
)

// flatMem is a trivial GlobalMemory over byte slices per space,
// mirroring the VM test harness: enough surface for the engines, no
// device model in the way.
type flatMem struct {
	global   []byte
	constant []byte
}

func (m *flatMem) space(s int) []byte {
	if s == ir.SpaceConstant {
		return m.constant
	}
	return m.global
}

func (m *flatMem) LoadBits(space int, off int64, size int) (uint64, error) {
	mem := m.space(space)
	if off < 0 || off+int64(size) > int64(len(mem)) {
		return 0, fmt.Errorf("load out of bounds: space=%d off=%d size=%d", space, off, size)
	}
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(mem[off+int64(i)])
	}
	return v, nil
}

func (m *flatMem) StoreBits(space int, off int64, size int, bits uint64) error {
	mem := m.space(space)
	if off < 0 || off+int64(size) > int64(len(mem)) {
		return fmt.Errorf("store out of bounds: space=%d off=%d size=%d", space, off, size)
	}
	for i := 0; i < size; i++ {
		mem[off+int64(i)] = byte(bits >> (8 * uint(i)))
	}
	return nil
}

func (m *flatMem) AtomicRMW(space int, off int64, size int, op vm.AtomicOp) (uint64, error) {
	old, err := m.LoadBits(space, off, size)
	if err != nil {
		return 0, err
	}
	return old, m.StoreBits(space, off, size, op.Apply(old))
}

// fillDeterministic writes an LCG byte stream whose bytes stay below
// 0x40, so any float32/float64 reinterpretation is finite (exponent
// never saturates) and engine comparisons never hinge on NaN payload
// propagation.
func fillDeterministic(b []byte, seed uint64) {
	x := seed*6364136223846793005 + 1442695040888963407
	for i := range b {
		x = x*6364136223846793005 + 1442695040888963407
		b[i] = byte(x>>33) & 0x3f
	}
}

func mustCompile(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := clc.Compile("opt_test.cl", src, "")
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

// autoArgs binds every kernel parameter mechanically: each global or
// constant pointer gets its own 64-byte-aligned window in the arena
// (distinct buffers, honoring the host no-alias contract the passes
// assume), integer scalars get scalarVal, float scalars 1.5, and
// __local pointer args 256 bytes.
func autoArgs(k *ir.Kernel, arenaBytes int, scalarVal int64) ([]vm.ArgValue, int) {
	args := make([]vm.ArgValue, len(k.Params))
	nptr := 0
	for _, p := range k.Params {
		if p.Class == ir.ParamGlobalPtr {
			nptr++
		}
	}
	per := 0
	if nptr > 0 {
		per = arenaBytes / nptr / 64 * 64
	}
	off := int64(0)
	for i, p := range k.Params {
		switch p.Class {
		case ir.ParamGlobalPtr:
			// __constant pointer args get a global-tagged window too:
			// the engines route accesses by the address tag, and the
			// harness keeps one arena.
			args[i] = vm.ArgValue{Bits: ir.EncodeAddr(ir.SpaceGlobal, off)}
			off += int64(per)
		case ir.ParamLocalPtr:
			args[i] = vm.ArgValue{LocalSize: 256}
		case ir.ParamScalarF:
			args[i] = vm.ArgValue{F: 1.5}
		default:
			args[i] = vm.ArgValue{Bits: scalarVal}
		}
	}
	return args, per
}

// runKernel executes a 1-D NDRange and returns the final global
// arena. A nil error means every group completed.
func runKernel(k *ir.Kernel, args []vm.ArgValue, global, local, arenaBytes int, seed uint64, eng vm.Engine, stepLimit uint64) ([]byte, error) {
	mem := &flatMem{global: make([]byte, arenaBytes)}
	fillDeterministic(mem.global, seed)
	prof := &vm.Profile{}
	for g := 0; g < (global+local-1)/local; g++ {
		cfg := &vm.GroupConfig{
			Kernel:     k,
			WorkDim:    1,
			GroupID:    [3]int{g, 0, 0},
			LocalSize:  [3]int{local, 1, 1},
			GlobalSize: [3]int{global, 1, 1},
			Args:       args,
			Mem:        mem,
			Engine:     eng,
			StepLimit:  stepLimit,
		}
		if err := vm.RunGroup(cfg, prof); err != nil {
			return nil, err
		}
	}
	return mem.global, nil
}

const (
	diffArena     = 1 << 12
	diffStepLimit = 1 << 22
)

var allEngines = []vm.Engine{vm.EngineInterp, vm.EngineCompiled}

// checkEquivalence is the differential contract: the reference
// interpreter on the UNTRANSFORMED kernel is the oracle; the
// transformed kernel must reproduce its final memory image
// bit-for-bit on both engines. If the oracle faults, the
// transformed kernel must fault too (messages may differ). The
// transformed kernel gets a larger step budget: address fixups and
// remainder loops add instructions without changing results.
func checkEquivalence(t *testing.T, orig, xform *ir.Kernel, global, local int, scalarVal int64, seed uint64) {
	t.Helper()
	args, _ := autoArgs(orig, diffArena, scalarVal)
	want, oracleErr := runKernel(orig, args, global, local, diffArena, seed, vm.EngineInterp, diffStepLimit)
	for _, e := range allEngines {
		got, err := runKernel(xform, args, global, local, diffArena, seed, e, 4*diffStepLimit+1024)
		if oracleErr != nil {
			if err == nil {
				t.Errorf("%v: oracle faulted (%v) but transformed kernel succeeded", e, oracleErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%v: transformed kernel faulted: %v", e, err)
			continue
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%v: transformed kernel diverges from interpreter oracle at %s", e, firstDiff(want, got))
		}
	}
}

func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("byte %d (%#02x vs %#02x)", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("length %d vs %d", len(a), len(b))
}

// optimizeOne compiles src, applies the selected passes to every
// kernel, and returns the original program, the transformed program
// and the report.
func optimizeOne(t *testing.T, src string, only []string) (*ir.Program, *ir.Program, *Report) {
	t.Helper()
	prog := mustCompile(t, src)
	out, rep, err := OptimizeWith(prog, only)
	if err != nil {
		t.Fatalf("OptimizeWith: %v", err)
	}
	return prog, out, rep
}

func kernelNames(p *ir.Program) []string {
	var names []string
	for n := range p.Kernels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
