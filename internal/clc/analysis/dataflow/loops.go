package dataflow

import (
	"sort"

	"maligo/internal/clc/ir"
)

// Loop is one natural loop: a back edge latch->header where the
// header dominates the latch, plus the set of blocks in the loop.
type Loop struct {
	Header int
	Latch  int
	Blocks map[int]bool

	// Trip is the exact iteration count when the loop is a counted
	// `for (iv = start; iv < bound; iv += step)` shape with all three
	// quantities statically known; -1 otherwise.
	Trip int64

	// Counted-shape facts. Counted reports that the header exits on a
	// scalar `iv < bound` / `iv <= bound` compare (JmpIfZ leaving the
	// loop) and that exactly one constant-step increment of iv reaches
	// the compare from inside the loop. Unlike Trip, the shape does
	// not require the bound or the initial value to be constants, so
	// runtime-bounded loops (`for (i = lo; i < hi; i++)`) are still
	// recognized — the transform passes in internal/clc/opt build
	// their vectorized pre-loops from these fields.
	Counted bool
	IV      int32 // induction slot (integer bank)
	Step    int64 // constant per-iteration increment, > 0
	CmpAt   int   // instruction index of the exit compare
	CmpOp   ir.Op // ir.CmpLtI or ir.CmpLeI
	// BoundSlot is the compare's right operand. Bound carries its
	// constant value when BoundConst (the slot may be defined inside
	// the header, e.g. a re-materialized immediate).
	BoundSlot  int32
	Bound      int64
	BoundConst bool
	// IncAt lists the iv-update chain inside the loop in execution
	// order: the AddI/SubI computing iv+step and any MovI copies back
	// into the induction slot.
	IncAt []int
}

// Loops recognizes the kernel's natural loops and, where possible,
// their trip counts. Loops are returned in header order. The result is
// computed once per Facts and shared by every caller, so it is
// read-only.
func (f *Facts) Loops() []Loop {
	if f.loops == nil {
		f.loops = f.findLoops()
	}
	return f.loops
}

func (f *Facts) findLoops() []Loop {
	g := f.G
	loops := []Loop{}
	for _, b := range g.RPO {
		for _, s := range g.Blocks[b].Succs {
			if g.Reachable(s) && g.Dominates(s, b) {
				loops = append(loops, f.buildLoop(s, b))
			}
		}
	}
	sort.Slice(loops, func(i, j int) bool {
		if loops[i].Header != loops[j].Header {
			return loops[i].Header < loops[j].Header
		}
		return loops[i].Latch < loops[j].Latch
	})
	return loops
}

func (f *Facts) buildLoop(header, latch int) Loop {
	g := f.G
	l := Loop{Header: header, Latch: latch, Blocks: map[int]bool{header: true}, Trip: -1}
	var add func(b int)
	add = func(b int) {
		if l.Blocks[b] {
			return
		}
		l.Blocks[b] = true
		for _, p := range g.Blocks[b].Preds {
			add(p)
		}
	}
	add(latch)
	f.countedShape(&l)
	return l
}

// countedShape derives the counted-loop facts and, when the bound and
// every initial value are constants, the exact trip count. The header
// must exit on a < or <= compare of an induction slot, and the
// induction slot must be advanced by exactly one constant-step add
// inside the loop.
func (f *Facts) countedShape(l *Loop) {
	g := f.G
	code := g.Kernel.Code
	hb := g.Blocks[l.Header]
	term := hb.Terminator()
	if term < 0 || code[term].Op != ir.JmpIfZ {
		return
	}
	// The JmpIfZ target must leave the loop (the canonical while-shape
	// lowering: cond; JmpIfZ exit; body; Jmp cond).
	if tgt := code[term].Imm; tgt < int64(len(code)) && tgt >= 0 && l.Blocks[g.blockAt[tgt]] {
		return
	}
	def := condDef(code, hb, term)
	if def < 0 {
		return
	}
	d := &code[def]
	if (d.Op != ir.CmpLtI && d.Op != ir.CmpLeI) || d.Width > 1 {
		return
	}
	bound, boundConst := f.IntervalBefore(def, d.C).Const()
	// Classify the reaching definitions of the induction slot at the
	// compare: initializations from outside the loop, and a single
	// constant-step increment inside it.
	iv := ir.RegRef{Bank: ir.BankI, Slot: d.B, Width: 1}
	du := f.DefUse()
	var start, step int64
	var incAt []int
	haveStart, startConst, haveStep := false, true, false
	for _, di := range du.DefsAt(def, iv) {
		inLoop := l.Blocks[g.blockAt[di]]
		dd := &code[di]
		if !inLoop {
			v, ok := f.IntervalAfter(di, d.B).Const()
			if !ok || (haveStart && startConst && v != start) {
				startConst = false
			} else {
				start = v
			}
			haveStart = true
			continue
		}
		if haveStep {
			return
		}
		// Chase copy chains: lowering computes iv+step into a temp and
		// copies it back (movi iv <- t).
		chain := []int{di}
		for depth := 0; dd.Op == ir.MovI && depth < 8; depth++ {
			srcs := du.DefsAt(di, ir.RegRef{Bank: ir.BankI, Slot: dd.B, Width: 1})
			if len(srcs) != 1 || !l.Blocks[g.blockAt[srcs[0]]] {
				break
			}
			di = srcs[0]
			dd = &code[di]
			chain = append(chain, di)
		}
		if dd.Op != ir.AddI && dd.Op != ir.SubI {
			return
		}
		// iv = iv +/- const
		var other int32
		switch {
		case dd.B == d.B:
			other = dd.C
		case dd.C == d.B && dd.Op == ir.AddI:
			other = dd.B
		default:
			return
		}
		v, ok := f.IntervalBefore(di, other).Const()
		if !ok {
			return
		}
		if dd.Op == ir.SubI {
			v = -v
		}
		step, haveStep = v, true
		sort.Ints(chain)
		incAt = chain
	}
	if !haveStart || !haveStep || step <= 0 {
		return
	}
	l.Counted = true
	l.IV = d.B
	l.Step = step
	l.CmpAt = def
	l.CmpOp = d.Op
	l.BoundSlot = d.C
	l.Bound, l.BoundConst = bound, boundConst
	l.IncAt = incAt

	if !boundConst || !startConst {
		return
	}
	if d.Op == ir.CmpLeI {
		bound++
	}
	if bound <= start {
		l.Trip = 0
		return
	}
	l.Trip = (bound - start + step - 1) / step
}
