package ir

import "maligo/internal/clc/builtin"

// The exported register def/use model. The optimizer's dead-code pass
// keeps its own map-based accounting (collectReads); this structured
// form is what CFG-level analyses (internal/clc/analysis/dataflow)
// build def-use chains from, and what the VM's compiled engine
// computes register liveness from (internal/vm/runopt.go) to drop
// dead register writes. That consumer relies on Uses never
// under-reporting a read: a read Uses misses makes the VM drop the
// write that feeds it, and the engines diverge. Over-reporting is
// safe everywhere. Keep the two in sync when adding opcodes.

// Register banks.
const (
	BankI = 0 // int64 slots
	BankF = 1 // float64 slots
)

// RegRef identifies a contiguous run of Width slots in one bank.
type RegRef struct {
	Bank  int
	Slot  int32
	Width int32
}

// Overlaps reports whether two references share at least one slot.
func (r RegRef) Overlaps(o RegRef) bool {
	return r.Bank == o.Bank && r.Slot < o.Slot+o.Width && o.Slot < r.Slot+r.Width
}

func instrWidth(in *Instr) int32 {
	if in.Width == 0 {
		return 1
	}
	return int32(in.Width)
}

// Def returns the register range an instruction writes, if any. For
// CallB the width is an upper bound (scalar-reducing builtins like dot
// write one lane); over-approximating a def is conservative for
// analyses that kill facts on writes.
func Def(in *Instr) (RegRef, bool) {
	w := instrWidth(in)
	switch in.Op {
	case MovI, ImmI, BcastI, AddI, SubI, MulI, DivI, RemI, AndI, OrI, XorI,
		ShlI, ShrI, NegI, NotI, CmpEqI, CmpNeI, CmpLtI, CmpLeI,
		CmpEqF, CmpNeF, CmpLtF, CmpLeF, SelI, CvtII, CvtFI, LoadI:
		return RegRef{BankI, in.A, w}, true
	case MovF, ImmF, BcastF, AddF, SubF, MulF, DivF, NegF, SelF, CvtIF, CvtFF, LoadF:
		return RegRef{BankF, in.A, w}, true
	case CallB, AtomicOp:
		if in.Base.IsFloat() {
			return RegRef{BankF, in.A, w}, true
		}
		return RegRef{BankI, in.A, w}, true
	}
	return RegRef{}, false
}

// Operand fields of an Instr, as UsesField names them.
const (
	FieldA = iota
	FieldB
	FieldC
	FieldD
)

// Uses invokes fn for every register range an instruction reads.
func Uses(in *Instr, fn func(RegRef)) {
	UsesField(in, func(_ int, r RegRef) { fn(r) })
}

// UsesField is Uses that also names the operand field (FieldA…FieldD)
// holding each range's first slot.
func UsesField(in *Instr, fn func(field int, r RegRef)) {
	w := instrWidth(in)
	i := func(f int, s, n int32) { fn(f, RegRef{BankI, s, n}) }
	f := func(fl int, s, n int32) { fn(fl, RegRef{BankF, s, n}) }
	switch in.Op {
	case MovI:
		i(FieldB, in.B, w)
	case MovF:
		f(FieldB, in.B, w)
	case BcastI:
		i(FieldB, in.B, 1)
	case BcastF:
		f(FieldB, in.B, 1)
	case AddI, SubI, MulI, DivI, RemI, AndI, OrI, XorI, ShlI, ShrI,
		CmpEqI, CmpNeI, CmpLtI, CmpLeI:
		i(FieldB, in.B, w)
		i(FieldC, in.C, w)
	case NegI, NotI, CvtII:
		i(FieldB, in.B, w)
	case AddF, SubF, MulF, DivF, CmpEqF, CmpNeF, CmpLtF, CmpLeF:
		f(FieldB, in.B, w)
		f(FieldC, in.C, w)
	case NegF, CvtFF:
		f(FieldB, in.B, w)
	case CvtIF:
		i(FieldB, in.B, w)
	case CvtFI:
		f(FieldB, in.B, w)
	case SelI:
		i(FieldB, in.B, w)
		i(FieldC, in.C, w)
		i(FieldD, in.D, w)
	case SelF:
		i(FieldB, in.B, w)
		f(FieldC, in.C, w)
		f(FieldD, in.D, w)
	case LoadI, LoadF:
		i(FieldB, in.B, 1)
	case StoreI:
		i(FieldA, in.A, w)
		i(FieldB, in.B, 1)
	case StoreF:
		f(FieldA, in.A, w)
		i(FieldB, in.B, 1)
	case CallB:
		id := builtin.ID(in.Imm)
		switch {
		case id.IsWorkItemQuery():
			i(FieldB, in.B, 1)
		case id == builtin.GetWorkDim:
		case id == builtin.Min || id == builtin.Max || id == builtin.Abs ||
			id == builtin.Clamp:
			if in.Base.IsFloat() {
				f(FieldB, in.B, w)
				f(FieldC, in.C, w)
				f(FieldD, in.D, w)
			} else {
				i(FieldB, in.B, w)
				i(FieldC, in.C, w)
				i(FieldD, in.D, w)
			}
		case id == builtin.Select:
			if in.Base.IsFloat() {
				f(FieldB, in.B, w)
				f(FieldC, in.C, w)
			} else {
				i(FieldB, in.B, w)
				i(FieldC, in.C, w)
			}
			i(FieldD, in.D, w)
		default:
			f(FieldB, in.B, w)
			f(FieldC, in.C, w)
			f(FieldD, in.D, w)
		}
	case AtomicOp:
		i(FieldB, in.B, 1)
		i(FieldC, in.C, 1)
		i(FieldD, in.D, 1)
	case JmpIf, JmpIfZ:
		i(FieldB, in.B, 1)
	}
}
