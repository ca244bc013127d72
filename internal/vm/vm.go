// Package vm executes lowered kernel IR work-group by work-group. It
// is the functional half of the simulated devices: it produces both
// the architectural effects (memory contents) and an execution profile
// (instruction and memory-traffic counts) that the device timing
// models in internal/mali and internal/cpu convert into cycles and
// joules.
//
// Two engines implement that contract. The reference interpreter
// (exec.go) decodes and dispatches one instruction per step and serves
// as the oracle; the closure-compiled fast path (compile.go)
// pre-decodes each kernel once into flat execution units and is the
// default. Both are observationally identical — results, profiles,
// traces, faults — and selected per run via GroupConfig.Engine; the
// differential and fuzz tests enforce the equivalence.
package vm

import (
	"errors"
	"fmt"

	"maligo/internal/clc/ir"
)

// ErrStepLimit is returned when a work-item exceeds the configured
// dynamic instruction budget (runaway loop protection).
var ErrStepLimit = errors.New("vm: work-item exceeded step limit")

// ErrBarrierDivergence is returned when some work-items of a group hit
// a barrier while others return — undefined behaviour in OpenCL that
// the VM reports instead of hanging.
var ErrBarrierDivergence = errors.New("vm: barrier divergence inside work-group")

// GlobalMemory is the interface to simulated global and constant
// memory, implemented by the OpenCL runtime/device models. Offsets are
// space-relative byte offsets (the VM strips the address-space tag).
type GlobalMemory interface {
	LoadBits(space int, off int64, size int) (uint64, error)
	StoreBits(space int, off int64, size int, bits uint64) error
	// AtomicRMW applies op to the size-byte word at off atomically
	// (new bits = op.Apply(old bits)) and returns the previous value.
	AtomicRMW(space int, off int64, size int, op AtomicOp) (uint64, error)
}

// AccessObserver receives one callback per executed memory
// instruction; device models feed these into their cache/DRAM models.
// addr is the tagged simulated address of the first byte, size the
// total bytes moved by the instruction (lanes x element size).
type AccessObserver interface {
	OnAccess(space int, addr int64, size int, write bool)
	// OnAtomic is called additionally for atomic read-modify-write
	// operations; device models use it for contention modelling.
	OnAtomic(space int, addr int64, size int)
}

// RepeatObserver is an optional extension of AccessObserver. A trace
// folds consecutive same-line reads or writes into one record; Replay
// delivers such a record as one OnAccess with the union of the
// accesses' byte ranges, then OnRepeat with the number of further
// accesses. Each of them touched only the cache line that OnAccess
// just touched, so a cache model counts them as hits on that line
// (mem.Cache.Repeat). Replay calls OnAccess again instead for an
// observer that does not implement it.
type RepeatObserver interface {
	OnRepeat(n int, write bool)
}

// ContextObserver is an optional extension of AccessObserver. When the
// configured observer implements it and ContextActive returns true,
// the VM calls OnContext immediately before every OnAccess/OnAtomic
// callback with the flat local work-item index, the barrier phase
// (number of barriers the item has passed) and the source line of the
// memory instruction. Trace implements it in detail mode; the dynamic
// race detector relies on it to attribute accesses to work-items.
type ContextObserver interface {
	OnContext(item, phase, line int)
	// ContextActive reports whether context callbacks are wanted; the
	// VM checks it once per group so inactive observers cost nothing.
	ContextActive() bool
}

// Profile accumulates execution statistics for one enqueue (all
// work-groups of one NDRange).
type Profile struct {
	Instrs uint64 // total dynamic instructions

	IntInstrs   uint64 // integer arithmetic instructions
	IntLanes    uint64 // integer lanes (vector instr of width w adds w)
	F32Instrs   uint64
	F32Lanes    uint64
	F64Instrs   uint64
	F64Lanes    uint64
	TranscInstr uint64 // transcendental builtin calls
	TranscLanes uint64

	// ArithSlots128 counts 128-bit SIMD issue slots for arithmetic
	// (a scalar op takes one slot; a double8 op takes four) — the unit
	// of the Mali arithmetic-pipe timing model.
	ArithSlots128 uint64
	// LSSlots128 counts load/store-pipe issue slots (one per memory
	// instruction moving up to 16 bytes).
	LSSlots128 uint64
	// LSLanes counts scalar elements moved (the unit of the scalar CPU
	// load/store timing model).
	LSLanes uint64

	LoadInstrs  uint64
	StoreInstrs uint64
	// Bytes moved per address space (indexed by ir.Space*).
	BytesRead    [4]uint64
	BytesWritten [4]uint64

	// PrivateAccesses counts memory instructions touching __private
	// arrays (spilled to memory on Mali, priced with a penalty there).
	PrivateAccesses uint64

	Atomics    uint64 // atomic operations executed
	Barriers   uint64 // barrier instructions executed (per work-item)
	WorkItems  uint64
	WorkGroups uint64
}

// Add accumulates other into p.
func (p *Profile) Add(o *Profile) {
	p.Instrs += o.Instrs
	p.IntInstrs += o.IntInstrs
	p.IntLanes += o.IntLanes
	p.F32Instrs += o.F32Instrs
	p.F32Lanes += o.F32Lanes
	p.F64Instrs += o.F64Instrs
	p.F64Lanes += o.F64Lanes
	p.TranscInstr += o.TranscInstr
	p.TranscLanes += o.TranscLanes
	p.ArithSlots128 += o.ArithSlots128
	p.LSSlots128 += o.LSSlots128
	p.LSLanes += o.LSLanes
	p.LoadInstrs += o.LoadInstrs
	p.StoreInstrs += o.StoreInstrs
	for i := range p.BytesRead {
		p.BytesRead[i] += o.BytesRead[i]
		p.BytesWritten[i] += o.BytesWritten[i]
	}
	p.PrivateAccesses += o.PrivateAccesses
	p.Atomics += o.Atomics
	p.Barriers += o.Barriers
	p.WorkItems += o.WorkItems
	p.WorkGroups += o.WorkGroups
}

// TotalBytes returns all bytes moved across every space.
func (p *Profile) TotalBytes() uint64 {
	var n uint64
	for i := range p.BytesRead {
		n += p.BytesRead[i] + p.BytesWritten[i]
	}
	return n
}

// GlobalBytes returns bytes moved in the global + constant spaces.
func (p *Profile) GlobalBytes() uint64 {
	return p.BytesRead[ir.SpaceGlobal] + p.BytesWritten[ir.SpaceGlobal] +
		p.BytesRead[ir.SpaceConstant] + p.BytesWritten[ir.SpaceConstant]
}

// ArgValue is one bound kernel argument.
type ArgValue struct {
	// Bits carries scalar integer values or the tagged buffer base
	// address for pointer arguments.
	Bits int64
	// F carries scalar float arguments.
	F float64
	// LocalSize is the host-requested size for __local pointer
	// arguments (clSetKernelArg with a nil pointer).
	LocalSize int
}

// GroupConfig describes one work-group execution.
type GroupConfig struct {
	Kernel       *ir.Kernel
	WorkDim      int
	GroupID      [3]int
	LocalSize    [3]int
	GlobalSize   [3]int
	GlobalOffset [3]int
	Args         []ArgValue
	Mem          GlobalMemory
	Observer     AccessObserver // may be nil
	StepLimit    uint64         // per work-item; 0 = default

	// Engine selects the execution engine: the reference interpreter
	// or the closure-compiled fast path. The zero value EngineAuto
	// resolves to the compiled engine; both are observationally
	// identical (see Engine).
	Engine Engine
}

const defaultStepLimit = 1 << 32

// wiState is the saved execution state of one work-item.
type wiState struct {
	pc    int
	ii    []int64
	ff    []float64
	priv  []byte
	done  bool
	atBar bool
}

// groupRunner executes one work-group.
type groupRunner struct {
	cfg     *GroupConfig
	k       *ir.Kernel
	local   []byte
	prof    *Profile
	localID [3]int // current work-item local coordinates
	cur     *wiState
	steps   uint64
	limit   uint64
	// ctxObs, item and phase feed per-access context callbacks when the
	// observer asks for them (race checking); ctxObs is nil otherwise.
	ctxObs ContextObserver
	item   int
	phase  int
}

// RunGroup executes a single work-group to completion, accumulating
// into prof (which must be non-nil).
func RunGroup(cfg *GroupConfig, prof *Profile) error {
	k := cfg.Kernel
	limit := cfg.StepLimit
	if limit == 0 {
		limit = defaultStepLimit
	}
	localBytes := k.LocalBytes
	for i, p := range k.Params {
		if p.Class == ir.ParamLocalPtr {
			localBytes = alignUp(localBytes, 16)
			localBytes += cfg.Args[i].LocalSize
		}
	}
	r := &groupRunner{
		cfg:   cfg,
		k:     k,
		prof:  prof,
		limit: limit,
	}
	if co, ok := cfg.Observer.(ContextObserver); ok && co.ContextActive() {
		r.ctxObs = co
	}
	nloc := cfg.LocalSize[0] * max(cfg.LocalSize[1], 1) * max(cfg.LocalSize[2], 1)
	if nloc <= 0 {
		return fmt.Errorf("vm: empty work-group")
	}
	prof.WorkGroups++
	prof.WorkItems += uint64(nloc)

	if cfg.Engine.UseCompiled() {
		return r.runGroupCompiled(localBytes, nloc)
	}
	r.local = make([]byte, localBytes)

	if !k.UsesBarrier {
		// Fast path: run each work-item to completion, reusing one state.
		st := r.newState()
		item := 0
		for lz := 0; lz < max(cfg.LocalSize[2], 1); lz++ {
			for ly := 0; ly < max(cfg.LocalSize[1], 1); ly++ {
				for lx := 0; lx < cfg.LocalSize[0]; lx++ {
					r.resetState(st)
					r.localID = [3]int{lx, ly, lz}
					r.cur = st
					r.item = item
					item++
					if err := r.run(st, false); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}

	// Barrier path: keep every work-item's state resident and advance
	// the group in barrier-delimited phases.
	states := make([]*wiState, nloc)
	coords := make([][3]int, nloc)
	i := 0
	for lz := 0; lz < max(cfg.LocalSize[2], 1); lz++ {
		for ly := 0; ly < max(cfg.LocalSize[1], 1); ly++ {
			for lx := 0; lx < cfg.LocalSize[0]; lx++ {
				states[i] = r.newState()
				coords[i] = [3]int{lx, ly, lz}
				i++
			}
		}
	}
	for phase := 0; ; phase++ {
		anyBar, anyDone, allFinished := false, false, true
		for i, st := range states {
			if st.done {
				anyDone = true
				continue
			}
			r.localID = coords[i]
			r.cur = st
			r.item = i
			r.phase = phase
			if err := r.run(st, true); err != nil {
				return err
			}
			if st.done {
				anyDone = true
			} else {
				st.atBar = false // consumed below
				anyBar = true
				allFinished = false
			}
		}
		if allFinished {
			return nil
		}
		if anyBar && anyDone {
			return ErrBarrierDivergence
		}
	}
}

func (r *groupRunner) newState() *wiState {
	return &wiState{
		ii:   make([]int64, r.k.NumI),
		ff:   make([]float64, r.k.NumF),
		priv: make([]byte, r.k.PrivateBytes),
	}
}

func (r *groupRunner) resetState(st *wiState) {
	st.pc = 0
	st.done = false
	st.atBar = false
	for i := range st.ii {
		st.ii[i] = 0
	}
	for i := range st.ff {
		st.ff[i] = 0
	}
	for i := range st.priv {
		st.priv[i] = 0
	}
}

func alignUp(n, a int) int { return (n + a - 1) / a * a }

// bindArgs loads kernel arguments into the state's registers.
func (r *groupRunner) bindArgs(st *wiState) {
	localOff := int64(r.k.LocalBytes)
	for i, p := range r.k.Params {
		arg := r.cfg.Args[i]
		switch p.Class {
		case ir.ParamScalarI:
			st.ii[p.Slot] = arg.Bits
		case ir.ParamScalarF:
			st.ff[p.Slot] = arg.F
		case ir.ParamGlobalPtr:
			st.ii[p.Slot] = arg.Bits
		case ir.ParamLocalPtr:
			localOff = int64(alignUp(int(localOff), 16))
			st.ii[p.Slot] = ir.EncodeAddr(ir.SpaceLocal, localOff)
			localOff += int64(arg.LocalSize)
		}
	}
}
