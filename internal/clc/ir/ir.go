// Package ir defines the register-machine intermediate representation
// executed by the VM, and the lowering pass that translates
// semantically-checked OpenCL C into it.
//
// The machine model: each kernel instance (work-item) owns two flat
// register banks, one of int64 slots and one of float64 slots. A
// virtual register is a contiguous run of Width slots in one bank;
// slot indices are assigned statically during lowering (registers are
// in SSA-like single-assignment form only for temporaries — named
// variables reuse their slots). All helper-function calls are fully
// inlined, as a real OpenCL kernel compiler does (recursion is illegal
// in OpenCL C), so at run time there is exactly one frame per
// work-item and barriers can suspend a work-item by saving that frame.
package ir

import (
	"fmt"
	"strings"
	"sync/atomic"

	"maligo/internal/clc/ast"
	"maligo/internal/clc/builtin"
	"maligo/internal/clc/token"
	"maligo/internal/clc/types"
)

// Op is an IR opcode.
type Op int

// IR opcodes. I-suffixed ops operate on the integer bank, F-suffixed
// on the float bank. Element-wise ops process Width lanes.
const (
	Nop Op = iota

	MovI // A <- B
	MovF
	ImmI   // A <- Imm (broadcast to Width lanes)
	ImmF   // A <- FImm (broadcast)
	BcastI // A[0..W) <- B[0]
	BcastF

	AddI
	SubI
	MulI
	DivI // signedness from Base
	RemI
	AndI
	OrI
	XorI
	ShlI
	ShrI // arithmetic/logical from Base signedness
	NegI
	NotI
	AddF
	SubF
	MulF
	DivF
	NegF

	CmpEqI // A(int lanes) <- B == C
	CmpNeI
	CmpLtI
	CmpLeI
	CmpEqF
	CmpNeF
	CmpLtF
	CmpLeF

	SelI // A <- B(cond, int lanes) ? C : D
	SelF

	CvtII // int->int resize/re-sign; Base=dst base, Base2=src base
	CvtIF // int->float; Base=dst float base, Base2=src int base
	CvtFI // float->int
	CvtFF // float<->float (f32 rounding when Base is Float)

	LoadI // A <- mem[B]; Base=element type, Width lanes consecutive
	LoadF
	StoreI // mem[B] <- A
	StoreF

	CallB    // A <- builtin(B, C, D); Imm=builtin.ID
	AtomicOp // A <- atomic op at mem[B] with C (and D for cmpxchg); Imm=builtin.ID
	BarrierOp

	Jmp    // goto Imm
	JmpIf  // if I[B] != 0 goto Imm
	JmpIfZ // if I[B] == 0 goto Imm
	Ret
)

var opNames = [...]string{
	Nop:  "nop",
	MovI: "movi", MovF: "movf", ImmI: "immi", ImmF: "immf", BcastI: "bcasti", BcastF: "bcastf",
	AddI: "addi", SubI: "subi", MulI: "muli", DivI: "divi", RemI: "remi",
	AndI: "andi", OrI: "ori", XorI: "xori", ShlI: "shli", ShrI: "shri",
	NegI: "negi", NotI: "noti",
	AddF: "addf", SubF: "subf", MulF: "mulf", DivF: "divf", NegF: "negf",
	CmpEqI: "cmpeqi", CmpNeI: "cmpnei", CmpLtI: "cmplti", CmpLeI: "cmplei",
	CmpEqF: "cmpeqf", CmpNeF: "cmpnef", CmpLtF: "cmpltf", CmpLeF: "cmplef",
	SelI: "seli", SelF: "self",
	CvtII: "cvtii", CvtIF: "cvtif", CvtFI: "cvtfi", CvtFF: "cvtff",
	LoadI: "loadi", LoadF: "loadf", StoreI: "storei", StoreF: "storef",
	CallB: "callb", AtomicOp: "atomic", BarrierOp: "barrier",
	Jmp: "jmp", JmpIf: "jmpif", JmpIfZ: "jmpifz", Ret: "ret",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// IsFloatArith reports whether the op is a float-bank arithmetic op.
func (o Op) IsFloatArith() bool { return o >= AddF && o <= NegF }

// IsIntArith reports whether the op is an integer-bank arithmetic op.
func (o Op) IsIntArith() bool { return o >= AddI && o <= NotI }

// IsMemory reports whether the op accesses simulated memory.
func (o Op) IsMemory() bool {
	switch o {
	case LoadI, LoadF, StoreI, StoreF, AtomicOp:
		return true
	}
	return false
}

// Instr is a single IR instruction. The interpretation of A/B/C/D
// depends on the opcode; see the opcode comments.
type Instr struct {
	Op    Op
	A     int32 // usually the destination register (first slot index)
	B     int32
	C     int32
	D     int32
	Imm   int64
	FImm  float64
	Width uint8 // lanes
	Base  types.Base
	Base2 types.Base // conversion source base

	// Pos is the source position of the expression or statement the
	// instruction was lowered from; diagnostics (static analysis, the
	// dynamic race checker, VM memory faults) map IR back to source
	// through it. Optimization rewrites preserve it.
	Pos token.Pos
}

// String disassembles the instruction.
func (in Instr) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s", in.Op)
	switch in.Op {
	case ImmI:
		fmt.Fprintf(&b, "r%d <- %d", in.A, in.Imm)
	case ImmF:
		fmt.Fprintf(&b, "r%d <- %g", in.A, in.FImm)
	case Jmp:
		fmt.Fprintf(&b, "-> %d", in.Imm)
	case JmpIf, JmpIfZ:
		fmt.Fprintf(&b, "r%d -> %d", in.B, in.Imm)
	case CallB, AtomicOp:
		fmt.Fprintf(&b, "r%d <- %s(r%d, r%d, r%d)", in.A, builtin.ID(in.Imm), in.B, in.C, in.D)
	case Ret, BarrierOp, Nop:
	default:
		fmt.Fprintf(&b, "r%d, r%d, r%d, r%d", in.A, in.B, in.C, in.D)
	}
	if in.Width > 1 {
		fmt.Fprintf(&b, " x%d", in.Width)
	}
	if in.Base != types.Invalid {
		fmt.Fprintf(&b, " [%s]", in.Base)
	}
	return b.String()
}

// ParamClass describes how a kernel argument is delivered.
type ParamClass int

// Parameter classes.
const (
	ParamScalarI   ParamClass = iota // integer scalar in the I bank
	ParamScalarF                     // float scalar in the F bank
	ParamGlobalPtr                   // __global or __constant buffer address
	ParamLocalPtr                    // __local pointer sized by the host
)

// Param describes one kernel parameter after lowering.
type Param struct {
	Name  string
	Type  *types.Type
	Class ParamClass
	Slot  int32 // register slot receiving the value/address
	Space ast.AddressSpace
}

// ArrayDecl records the layout of one fixed-size in-kernel array
// (__local or __private) so IR-level analyses can map a simulated
// byte address back to the declaring array and its extent.
type ArrayDecl struct {
	Name     string
	Space    int   // SpaceLocal or SpacePrivate
	Offset   int64 // byte offset within the space
	Bytes    int64 // total extent in bytes
	ElemSize int64
	Len      int64 // declared element count
	Pos      token.Pos
}

// Contains reports whether the byte address addr (an EncodeAddr value)
// falls inside this array's extent.
func (a ArrayDecl) Contains(addr int64) bool {
	space, off := DecodeAddr(addr)
	return space == a.Space && off >= a.Offset && off < a.Offset+a.Bytes
}

// Kernel is a lowered kernel ready for execution.
type Kernel struct {
	Name   string
	Params []Param
	Code   []Instr

	// Arrays lists the fixed-size __local/__private arrays declared in
	// the kernel (including arrays of inlined helpers), in layout
	// order. Analyses use it to resolve constant base addresses back to
	// source-level names and extents.
	Arrays []ArrayDecl

	NumI int // integer bank size (slots)
	NumF int // float bank size (slots)

	// RegBytes is the total architectural register demand in bytes,
	// accounting for element sizes (a double4 costs 32 bytes, a
	// float4 costs 16) — the input to the register-pressure model.
	RegBytes int

	// LocalBytes is the statically declared __local memory per
	// work-group (from in-kernel __local arrays); host-provided
	// __local pointer arguments add to this at enqueue time.
	LocalBytes int

	// PrivateBytes is the per-work-item private array arena.
	PrivateBytes int

	// MaxVectorWidth is the widest vector operated on; the device
	// model uses it together with RegisterFootprint to estimate
	// register pressure.
	MaxVectorWidth int

	// UsesDouble reports whether any double-precision value flows
	// through the kernel.
	UsesDouble bool

	// UsesBarrier reports whether the kernel executes barrier();
	// work-groups of such kernels must be resident as a whole.
	UsesBarrier bool

	// RestrictParams counts pointer parameters declared restrict, and
	// ConstParams those declared const; the Mali compiler model uses
	// them as scheduling-quality hints (see DESIGN.md).
	RestrictParams int
	ConstParams    int

	// compiled caches the execution engine's compiled form of the
	// kernel (internal/vm stores its closure program here, typed as
	// `any` so ir stays free of a vm dependency). Concurrent compilers
	// may race to fill it, which is benign because compilation is a
	// pure function of the (immutable) kernel.
	compiled atomic.Value
}

// CompiledForm returns the execution engine's cached compiled form of
// the kernel, or nil when no engine has compiled it yet.
func (k *Kernel) CompiledForm() any { return k.compiled.Load() }

// SetCompiledForm caches an engine's compiled form on the kernel so
// every enqueue after the first reuses it.
func (k *Kernel) SetCompiledForm(v any) { k.compiled.Store(v) }

// RegisterFootprint estimates the per-work-item register demand in
// bytes. Lowering assigns slots without reuse for straight-line
// temporaries, so this is an upper bound; the Mali device model
// compares a scaled version of it against the physical register file
// (see internal/mali). Live variables and the widest temporaries
// dominate the estimate; element sizes matter, which is how
// double-precision wide-vector kernels blow the budget (the paper's
// CL_OUT_OF_RESOURCES failures).
func (k *Kernel) RegisterFootprint() int {
	if k.RegBytes > 0 {
		return k.RegBytes
	}
	return (k.NumI + k.NumF) * 8
}

// Disassemble renders the kernel IR for debugging and the cmd/clc tool.
func (k *Kernel) Disassemble() string {
	var b strings.Builder
	fmt.Fprintf(&b, "kernel %s(", k.Name)
	for i, p := range k.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s@r%d", p.Type, p.Name, p.Slot)
	}
	fmt.Fprintf(&b, ")  ; I=%d F=%d local=%dB private=%dB\n", k.NumI, k.NumF, k.LocalBytes, k.PrivateBytes)
	for i, in := range k.Code {
		fmt.Fprintf(&b, "%4d  %s\n", i, in.String())
	}
	return b.String()
}

// Program is a compiled translation unit: the kernels it defines plus
// the images of file-scope __constant variables.
type Program struct {
	Kernels map[string]*Kernel

	// ConstantData is the initialized image of file-scope __constant
	// variables; the runtime places it in the constant segment at
	// enqueue time.
	ConstantData []byte

	// Source retains the preprocessed source for diagnostics.
	Source string
}

// Kernel returns the named kernel or nil.
func (p *Program) Kernel(name string) *Kernel { return p.Kernels[name] }

// KernelNames lists kernels in deterministic order.
func (p *Program) KernelNames() []string {
	names := make([]string, 0, len(p.Kernels))
	for n := range p.Kernels { // maligo:allow maporder sorted below
		names = append(names, n)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}
