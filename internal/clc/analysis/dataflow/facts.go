package dataflow

import (
	"maligo/internal/clc/builtin"
	"maligo/internal/clc/ir"
	"maligo/internal/clc/types"
)

// typeBool aliases the bool base for the conversion-normalization check.
const typeBool = types.Bool

// maxWorkItemID bounds work-item ids and sizes: the simulated platform
// (internal/cl) rejects NDRanges beyond int32, so query results always
// fit an int without wrapping.
const maxWorkItemID = int64(1)<<31 - 1

// env is the combined dataflow state at a program point: per-slot
// value intervals, affine forms and divergence bits for the integer
// bank, and per-slot divergence bits for the float bank. The state is
// dense — one entry per register slot, sized from the kernel's
// NumI/NumF — and the zero entry is top (interval unknown, no affine
// form, value uniform across the work-group), so clone is a copy and
// a join is one linear sweep. Reads outside the banks yield top; the
// compiler and every transform keep defined registers inside them.
type env struct {
	i   []islot
	dvF []bool
}

// islot is the state of one integer-bank slot. ivOK is false when the
// interval is top, and iv is then ignored; af is either a form with OK
// set or the zero Affine (top).
type islot struct {
	iv   Interval
	af   Affine
	ivOK bool
	div  bool
}

func newEnv(k *ir.Kernel) *env {
	return &env{i: make([]islot, k.NumI), dvF: make([]bool, k.NumF)}
}

func (e *env) clone() *env {
	return &env{
		i:   append([]islot(nil), e.i...),
		dvF: append([]bool(nil), e.dvF...),
	}
}

// copyFrom overwrites e with src; both must belong to the same kernel.
func (e *env) copyFrom(src *env) {
	copy(e.i, src.i)
	copy(e.dvF, src.dvF)
}

func (e *env) interval(slot int32) Interval {
	if slot < 0 || int(slot) >= len(e.i) || !e.i[slot].ivOK {
		return Top
	}
	return e.i[slot].iv
}

func (e *env) affine(slot int32) Affine {
	if slot < 0 || int(slot) >= len(e.i) {
		return Affine{}
	}
	return e.i[slot].af
}

func (e *env) setIV(slot int32, v Interval) {
	s := &e.i[slot]
	s.iv, s.ivOK = v, !v.IsTop()
}

func (e *env) setAF(slot int32, a Affine) {
	if !a.OK {
		a = Affine{}
	}
	e.i[slot].af = a
}

func (e *env) divergent(bank int, slot int32) bool {
	if bank == ir.BankI {
		return slot >= 0 && int(slot) < len(e.i) && e.i[slot].div
	}
	return slot >= 0 && int(slot) < len(e.dvF) && e.dvF[slot]
}

func (e *env) setDiv(bank int, slot int32, d bool) {
	if bank == ir.BankI {
		e.i[slot].div = d
	} else {
		e.dvF[slot] = d
	}
}

// joinInto merges src into dst, returning whether dst changed. widen
// replaces growing interval bounds with infinities so loops converge.
func joinInto(dst, src *env, widen bool) bool {
	changed := false
	for k := range dst.i {
		d, s := &dst.i[k], &src.i[k]
		if d.ivOK {
			if !s.ivOK {
				d.iv, d.ivOK = Interval{}, false
				changed = true
			} else if h := d.iv.Hull(s.iv); h != d.iv {
				if widen {
					if h.Lo < d.iv.Lo {
						h.Lo = NegInf
					}
					if h.Hi > d.iv.Hi {
						h.Hi = PosInf
					}
				}
				d.iv, d.ivOK = h, !h.IsTop()
				changed = true
			}
		}
		if d.af.OK && s.af != d.af {
			d.af = Affine{}
			changed = true
		}
		if s.div && !d.div {
			d.div = true
			changed = true
		}
	}
	for k, v := range src.dvF {
		if v && !dst.dvF[k] {
			dst.dvF[k] = true
			changed = true
		}
	}
	return changed
}

// entryEnv seeds the kernel-entry state: every parameter is a uniform
// symbolic value clamped to its scalar range; everything else is top.
func entryEnv(k *ir.Kernel) *env {
	e := newEnv(k)
	for _, p := range k.Params {
		switch p.Class {
		case ir.ParamScalarI:
			e.setAF(p.Slot, Affine{OK: true, Sym: p.Slot, SymC: 1})
			if p.Type != nil {
				if r, ok := baseRange(p.Type.Base); ok {
					e.setIV(p.Slot, r)
				}
			}
		case ir.ParamGlobalPtr, ir.ParamLocalPtr:
			e.setAF(p.Slot, Affine{OK: true, Sym: p.Slot, SymC: 1})
		}
	}
	return e
}

// transfer applies one instruction to the environment in place.
// forceDiv marks definitions as divergent regardless of operands
// (used for blocks under divergent control).
func transfer(e *env, in *ir.Instr, forceDiv bool) {
	w := int32(in.Width)
	if w == 0 {
		w = 1
	}

	// Divergence: destination is divergent when any read register is,
	// when the instruction is an inherently divergent source, or when
	// it executes under divergent control.
	def, hasDef := ir.Def(in)
	if hasDef {
		d := forceDiv
		ir.Uses(in, func(r ir.RegRef) {
			for s := r.Slot; s < r.Slot+r.Width && !d; s++ {
				if e.divergent(r.Bank, s) {
					d = true
				}
			}
		})
		switch in.Op {
		case ir.LoadI, ir.LoadF, ir.AtomicOp:
			d = true
		case ir.CallB:
			id := builtin.ID(in.Imm)
			if id == builtin.GetLocalID || id == builtin.GetGlobalID {
				d = true
			}
		}
		// Value facts are computed below from the pre-write state;
		// divergence is written after them.
		defer func() {
			for s := def.Slot; s < def.Slot+def.Width; s++ {
				e.setDiv(def.Bank, s, d)
			}
		}()
	}

	// kill clears integer value facts for the written range; ops below
	// overwrite with better facts when they can.
	kill := func() {
		if hasDef && def.Bank == ir.BankI {
			for s := def.Slot; s < def.Slot+def.Width; s++ {
				e.setIV(s, Top)
				e.setAF(s, Affine{})
			}
		}
	}

	bin := func(f func(b, c Interval) Interval, g func(b, c Affine) Affine) {
		for l := int32(0); l < w; l++ {
			nv := clampBase(f(e.interval(in.B+l), e.interval(in.C+l)), in.Base)
			na := Affine{}
			if g != nil {
				na = g(e.affine(in.B+l), e.affine(in.C+l))
			}
			e.setIV(in.A+l, nv)
			e.setAF(in.A+l, na)
		}
	}

	switch in.Op {
	case ir.ImmI:
		for l := int32(0); l < w; l++ {
			e.setIV(in.A+l, Interval{in.Imm, in.Imm})
			e.setAF(in.A+l, AffineConst(in.Imm))
		}
	case ir.MovI:
		for l := int32(0); l < w; l++ {
			e.setIV(in.A+l, e.interval(in.B+l))
			e.setAF(in.A+l, e.affine(in.B+l))
		}
	case ir.BcastI:
		for l := int32(0); l < w; l++ {
			e.setIV(in.A+l, e.interval(in.B))
			e.setAF(in.A+l, e.affine(in.B))
		}
	case ir.AddI:
		bin(Interval.Add, Affine.Add)
	case ir.SubI:
		bin(Interval.Sub, Affine.Sub)
	case ir.MulI:
		bin(Interval.Mul, func(b, c Affine) Affine {
			if k, ok := c.IsConst(); ok {
				return b.Scale(k)
			}
			if k, ok := b.IsConst(); ok {
				return c.Scale(k)
			}
			return Affine{}
		})
	case ir.DivI:
		bin(func(b, c Interval) Interval {
			if k, ok := c.Const(); ok && k > 0 && b.Lo != NegInf && b.Hi != PosInf {
				return Interval{b.Lo / k, b.Hi / k}
			}
			return Top
		}, nil)
	case ir.RemI:
		bin(func(b, c Interval) Interval {
			if k, ok := c.Const(); ok && k > 0 {
				if b.Lo >= 0 {
					hi := k - 1
					if b.Hi < hi {
						hi = b.Hi
					}
					return Interval{0, hi}
				}
				return Interval{-(k - 1), k - 1}
			}
			return Top
		}, nil)
	case ir.AndI:
		bin(func(b, c Interval) Interval {
			if k, ok := c.Const(); ok && k >= 0 && b.Lo >= 0 {
				return Interval{0, k}
			}
			if k, ok := b.Const(); ok && k >= 0 && c.Lo >= 0 {
				return Interval{0, k}
			}
			return Top
		}, nil)
	case ir.OrI, ir.XorI:
		bin(func(b, c Interval) Interval { return Top }, nil)
	case ir.ShlI:
		bin(func(b, c Interval) Interval {
			if k, ok := c.Const(); ok && k >= 0 && k < 63 {
				return b.Mul(Interval{1 << k, 1 << k})
			}
			return Top
		}, func(b, c Affine) Affine {
			if k, ok := c.IsConst(); ok && k >= 0 && k < 63 {
				return b.Scale(1 << k)
			}
			return Affine{}
		})
	case ir.ShrI:
		bin(func(b, c Interval) Interval {
			k, ok := c.Const()
			if !ok || k < 0 || k > 63 {
				return Top
			}
			if b.Lo >= 0 || in.Base.IsSigned() {
				lo, hi := b.Lo, b.Hi
				if lo != NegInf {
					lo >>= k
				}
				if hi != PosInf {
					hi >>= k
				}
				return Interval{lo, hi}
			}
			return Top
		}, nil)
	case ir.NegI:
		for l := int32(0); l < w; l++ {
			e.setIV(in.A+l, clampBase(e.interval(in.B+l).Neg(), in.Base))
			e.setAF(in.A+l, e.affine(in.B+l).Scale(-1))
		}
	case ir.NotI:
		for l := int32(0); l < w; l++ {
			v := e.interval(in.B + l)
			e.setIV(in.A+l, clampBase(Interval{addSat(mulSat(v.Hi, -1), -1), addSat(mulSat(v.Lo, -1), -1)}, in.Base))
			e.setAF(in.A+l, Affine{})
		}
	case ir.CmpEqI, ir.CmpNeI, ir.CmpLtI, ir.CmpLeI:
		for l := int32(0); l < w; l++ {
			e.setIV(in.A+l, evalCmp(in.Op, e.interval(in.B+l), e.interval(in.C+l), in.Base.IsSigned()))
			e.setAF(in.A+l, Affine{})
		}
	case ir.CmpEqF, ir.CmpNeF, ir.CmpLtF, ir.CmpLeF:
		kill()
		for l := int32(0); l < w; l++ {
			e.setIV(in.A+l, Interval{0, 1})
		}
	case ir.SelI:
		for l := int32(0); l < w; l++ {
			cond := e.interval(in.B + l)
			switch {
			case cond.Lo > 0 || cond.Hi < 0: // definitely nonzero
				e.setIV(in.A+l, e.interval(in.C+l))
				e.setAF(in.A+l, e.affine(in.C+l))
			case cond.Lo == 0 && cond.Hi == 0:
				e.setIV(in.A+l, e.interval(in.D+l))
				e.setAF(in.A+l, e.affine(in.D+l))
			default:
				e.setIV(in.A+l, e.interval(in.C+l).Hull(e.interval(in.D+l)))
				e.setAF(in.A+l, Affine{})
			}
		}
	case ir.CvtII:
		for l := int32(0); l < w; l++ {
			v := e.interval(in.B + l)
			a := e.affine(in.B + l)
			if in.Base == typeBool {
				// Bool conversion normalizes to 0/1.
				switch {
				case v.Lo > 0 || v.Hi < 0:
					v, a = Interval{1, 1}, AffineConst(1)
				case v.Lo == 0 && v.Hi == 0:
					v, a = Interval{0, 0}, AffineConst(0)
				default:
					v, a = Interval{0, 1}, Affine{}
				}
			} else if r, bounded := baseRange(in.Base); bounded && (v.Lo < r.Lo || v.Hi > r.Hi) {
				v, a = r, Affine{}
			}
			e.setIV(in.A+l, v)
			e.setAF(in.A+l, a)
		}
	case ir.CvtFI:
		kill()
		for l := int32(0); l < w; l++ {
			if r, ok := baseRange(in.Base); ok {
				e.setIV(in.A+l, r)
			}
		}
	case ir.LoadI:
		kill()
		for l := int32(0); l < w; l++ {
			if r, ok := baseRange(in.Base); ok {
				e.setIV(in.A+l, r)
			}
		}
	case ir.CallB:
		kill()
		if def.Bank == ir.BankI {
			id := builtin.ID(in.Imm)
			if id.IsWorkItemQuery() {
				dim, dimKnown := e.interval(in.B).Const()
				// The simulated platform bounds every id and size by
				// int32, so int conversions of query results are exact
				// and affine forms survive them.
				v := Interval{0, maxWorkItemID}
				var a Affine
				switch id {
				case builtin.GetLocalID:
					if dimKnown && dim == 0 {
						a = Affine{OK: true, Lid: 1, Sym: NoSym}
					}
				case builtin.GetGlobalID:
					if dimKnown && dim == 0 {
						a = Affine{OK: true, Gid: 1, Sym: NoSym}
					}
				case builtin.GetLocalSize, builtin.GetGlobalSize, builtin.GetNumGroups:
					v = Interval{1, maxWorkItemID}
				}
				e.setIV(in.A, v)
				e.setAF(in.A, a)
			} else if id == builtin.GetWorkDim {
				e.setIV(in.A, Interval{1, 3})
			} else {
				for s := def.Slot; s < def.Slot+def.Width; s++ {
					if r, ok := baseRange(in.Base); ok {
						e.setIV(s, r)
					}
				}
			}
		}
	case ir.AtomicOp:
		kill()
		if def.Bank == ir.BankI {
			if r, ok := baseRange(in.Base); ok {
				e.setIV(def.Slot, r)
			}
		}
	default:
		// Float-bank ops, stores, jumps, barriers: no integer value
		// facts to update beyond the generic kill.
		kill()
	}
}

// evalCmp folds a comparison over intervals into {0,1} when decided.
func evalCmp(op ir.Op, b, c Interval, signed bool) Interval {
	if !signed && (b.Lo < 0 || c.Lo < 0) {
		// Unsigned compare with possibly-wrapped operands: undecided.
		return Interval{0, 1}
	}
	t, f := Interval{1, 1}, Interval{0, 0}
	switch op {
	case ir.CmpLtI:
		if b.Hi < c.Lo {
			return t
		}
		if b.Lo >= c.Hi {
			return f
		}
	case ir.CmpLeI:
		if b.Hi <= c.Lo {
			return t
		}
		if b.Lo > c.Hi {
			return f
		}
	case ir.CmpEqI:
		if bv, ok := b.Const(); ok {
			if cv, ok2 := c.Const(); ok2 && bv == cv {
				return t
			}
		}
		if b.Hi < c.Lo || c.Hi < b.Lo {
			return f
		}
	case ir.CmpNeI:
		if bv, ok := b.Const(); ok {
			if cv, ok2 := c.Const(); ok2 && bv == cv {
				return f
			}
		}
		if b.Hi < c.Lo || c.Hi < b.Lo {
			return t
		}
	}
	return Interval{0, 1}
}
