package vm

import (
	"math"

	"maligo/internal/clc/ir"
)

// Register liveness and pure-run rewriting for the compiled engine.
//
// Registers are not observable: only memory, the profile, the observer
// stream and errors are. So the compiled engine may execute fewer
// register instructions than the IR names, as long as every value that
// reaches an observable (an address, a stored value, a branch
// condition, a builtin operand) is the one the interpreter computes.
// The profile still counts every IR instruction — a run's pureDelta,
// its ki bump and the inline accesses' pre counts come from the
// original instruction indices and are untouched by anything here.
//
// Kernel liveness is a backward may-analysis over the compiled blocks
// (barriers are fall-through edges, Ret ends liveness) using the IR's
// own def/use model, ir.Def and ir.Uses: a register is live where some
// path reads it before an exact def overwrites it. CallB and AtomicOp
// defs are over-wide (dot, length and distance write one lane of the
// declared width; an atomic writes the integer bank whatever its base)
// so they only generate uses and never kill. Within one pure run the
// rewriting then works on the pre-decoded forms, whose operands are
// exact:
//
//  1. move retargeting — `t ← P(...); d ← t` becomes `d ← P(...)` when
//     t dies at the move and nothing in between touches t or d;
//  2. forwarding — a move's source replaces later reads of its
//     destination, and a scalar ImmI/ImmF folds into an
//     immediate-operand kind of its consumer (add, sub, mul, shifts,
//     compares; NaN immediates never fold);
//  3. dead-code removal — a pure instruction whose destination is dead
//     (read by nothing before it is overwritten or the run exits with
//     it dead) is dropped;
//  4. fusion — a multiply whose product dies at the add consuming it
//     becomes one multiply-add; with a folded scale, the index-address
//     chain `base + idx*size` becomes one instruction.

// regBits is a bitset over a kernel's unified register space: the
// integer bank's slots, then the float bank's.
type regBits []uint64

func (b regBits) has(u int32) bool { return b[u>>6]&(1<<(uint32(u)&63)) != 0 }

func (b regBits) add(u, w int32) {
	for i := u; i < u+w; i++ {
		b[i>>6] |= 1 << (uint32(i) & 63)
	}
}

func (b regBits) remove(u, w int32) {
	for i := u; i < u+w; i++ {
		b[i>>6] &^= 1 << (uint32(i) & 63)
	}
}

// regSpace maps bank slots into the unified register space.
type regSpace struct {
	nI, n int32
	words int
}

// newRegSpace sizes the space to cover every slot the code names, not
// just the kernel's declared bank sizes (hand-built kernels may
// under-declare them).
func newRegSpace(k *ir.Kernel) regSpace {
	nI, nF := int32(k.NumI), int32(k.NumF)
	grow := func(r ir.RegRef) {
		if r.Bank == ir.BankF {
			nF = max(nF, r.Slot+r.Width)
		} else {
			nI = max(nI, r.Slot+r.Width)
		}
	}
	for i := range k.Code {
		if r, ok := ir.Def(&k.Code[i]); ok {
			grow(r)
		}
		ir.Uses(&k.Code[i], grow)
	}
	return regSpace{nI: nI, n: nI + nF, words: int(nI+nF+63) / 64}
}

func (s *regSpace) ref(r ir.RegRef) (int32, int32) {
	if r.Bank == ir.BankF {
		return s.nI + r.Slot, r.Width
	}
	return r.Slot, r.Width
}

// killsDef returns the register range an instruction overwrites
// entirely. CallB and AtomicOp report none: their ir.Def is an upper
// bound, not an exact write.
func killsDef(in *ir.Instr) (ir.RegRef, bool) {
	if in.Op == ir.CallB || in.Op == ir.AtomicOp {
		return ir.RegRef{}, false
	}
	return ir.Def(in)
}

// transfer steps live backward over one IR instruction.
func (s *regSpace) transfer(in *ir.Instr, live regBits) {
	if r, ok := killsDef(in); ok {
		live.remove(s.ref(r))
	}
	ir.Uses(in, func(r ir.RegRef) { live.add(s.ref(r)) })
}

// kernelLiveOut solves backward liveness over the blocks starting at
// starts (sorted; the last block ends at len(code)) and returns each
// block's live-out set.
func kernelLiveOut(code []ir.Instr, starts []int, sp *regSpace) []regBits {
	nb, w := len(starts), sp.words
	flat := make([]uint64, 4*nb*w)
	set := func(k, b int) regBits { return regBits(flat[(k*nb+b)*w : (k*nb+b+1)*w]) }
	gen, kill, in, out := 0, 1, 2, 3

	blockAt := make([]int32, len(code)) // block index by start pc
	for b, s := range starts {
		blockAt[s] = int32(b)
	}
	end := func(b int) int {
		if b+1 < nb {
			return starts[b+1]
		}
		return len(code)
	}
	succ := make([][2]int, nb)
	for b := range starts {
		succ[b] = [2]int{-1, -1}
		e := end(b)
		last := &code[e-1]
		fall := -1
		if e < len(code) {
			fall = int(blockAt[e])
		}
		target := func() int {
			if last.Imm < 0 || last.Imm >= int64(len(code)) {
				return -1 // runs off the code: the pc fault ends the item
			}
			return int(blockAt[last.Imm])
		}
		switch last.Op {
		case ir.Ret:
		case ir.Jmp:
			succ[b][0] = target()
		case ir.JmpIf, ir.JmpIfZ:
			succ[b] = [2]int{target(), fall}
		default:
			succ[b][0] = fall
		}
		g, k := set(gen, b), set(kill, b)
		for i := e - 1; i >= starts[b]; i-- {
			if r, ok := killsDef(&code[i]); ok {
				u, n := sp.ref(r)
				g.remove(u, n)
				k.add(u, n)
			}
			ir.Uses(&code[i], func(r ir.RegRef) { g.add(sp.ref(r)) })
		}
	}
	for changed := true; changed; {
		changed = false
		for b := nb - 1; b >= 0; b-- {
			o := set(out, b)
			for _, s := range succ[b] {
				if s >= 0 {
					for i, v := range set(in, s) {
						o[i] |= v
					}
				}
			}
			g, k, li := set(gen, b), set(kill, b), set(in, b)
			for i := range li {
				v := g[i] | o[i]&^k[i]
				if v != li[i] {
					li[i] = v
					changed = true
				}
			}
		}
	}
	outs := make([]regBits, nb)
	for b := range outs {
		outs[b] = set(out, b)
	}
	return outs
}

// Operand roles of a pre-decoded instruction, per pIns field a, b, c,
// d: a use or a (one-slot) def in the integer or float bank.
type role uint8

const (
	rNone role = iota
	rUI
	rUF
	rDI
	rDF
)

type roles [4]role

// fieldRoles reads an instruction's operand roles from the IR's own
// def/use model. Every specialized kind keeps the IR's operand fields
// in the pIns fields of the same letter, so the roles carry over; an
// inline access's c and d hold no register the IR names. pFn entries
// keep their operands in the closure and are never rewritten.
func fieldRoles(in *ir.Instr) roles {
	var r roles
	if d, ok := ir.Def(in); ok {
		r[ir.FieldA] = rDI
		if d.Bank == ir.BankF {
			r[ir.FieldA] = rDF
		}
	}
	ir.UsesField(in, func(f int, ref ir.RegRef) {
		r[f] = rUI
		if ref.Bank == ir.BankF {
			r[f] = rUF
		}
	})
	return r
}

// rEnt is one instruction of a pure run under rewriting: its
// pre-decoded form and the IR instruction it came from.
type rEnt struct {
	p  pIns
	in *ir.Instr
	r  roles
}

// effectful reports whether the entry is an inline memory access,
// which is never dropped.
func (e *rEnt) effectful() bool { return e.p.kind >= pLoadF32 && e.p.kind <= pStoreInt }

func (e *rEnt) field(f int) *int32 {
	switch f {
	case 0:
		return &e.p.a
	case 1:
		return &e.p.b
	case 2:
		return &e.p.c
	}
	return &e.p.d
}

// runOpt rewrites the pure runs of one kernel. Its scratch state is
// sized once per kernel and reused run after run.
type runOpt struct {
	sp      regSpace
	live    regBits  // backward-walk scratch
	after   []uint64 // live-after sets of the current run, flattened
	facts   []fact
	touched []int32
}

// fact is what the forward pass knows about a register inside a run:
// it holds a copy of another register, or an immediate.
type fact struct {
	kind uint8 // factNone, factCopy, factImm
	src  int32
	imm  int64
	fimm float64
}

const (
	factNone uint8 = iota
	factCopy
	factImm
)

func newRunOpt(sp regSpace) *runOpt {
	return &runOpt{sp: sp, live: make(regBits, sp.words), facts: make([]fact, sp.n)}
}

func (o *runOpt) unified(r role, slot int32) int32 {
	if r == rUF || r == rDF {
		return o.sp.nI + slot
	}
	return slot
}

// uses calls fn for every register range the entry reads.
func (o *runOpt) uses(e *rEnt, fn func(u, w int32)) {
	if e.p.kind == pFn {
		ir.Uses(e.in, func(r ir.RegRef) { fn(o.sp.ref(r)) })
		return
	}
	for f, r := range e.r {
		if r == rUI || r == rUF {
			fn(o.unified(r, *e.field(f)), 1)
		}
	}
}

// def returns the register range the entry writes. Every pure form
// writes exactly what it names.
func (o *runOpt) def(e *rEnt) (u, w int32, ok bool) {
	if e.p.kind == pFn {
		r, ok := ir.Def(e.in)
		if !ok {
			return 0, 0, false
		}
		u, w := o.sp.ref(r)
		return u, w, true
	}
	if r := e.r[0]; r == rDI || r == rDF {
		return o.unified(r, e.p.a), 1, true
	}
	return 0, 0, false
}

func (o *runOpt) reads(e *rEnt, u int32) bool {
	hit := false
	o.uses(e, func(v, w int32) { hit = hit || (u >= v && u < v+w) })
	return hit
}

func (o *runOpt) writes(e *rEnt, u int32) bool {
	v, w, ok := o.def(e)
	return ok && u >= v && u < v+w
}

// liveAfter fills o.after with each entry's live-after set, given the
// set live at the run's exit, and returns the accessor.
func (o *runOpt) liveAfter(run []rEnt, exit regBits) func(i int) regBits {
	w := o.sp.words
	if need := len(run) * w; cap(o.after) < need {
		o.after = make([]uint64, need)
	} else {
		o.after = o.after[:need]
	}
	copy(o.live, exit)
	for i := len(run) - 1; i >= 0; i-- {
		copy(o.after[i*w:(i+1)*w], o.live)
		o.step(&run[i], o.live)
	}
	return func(i int) regBits { return regBits(o.after[i*w : (i+1)*w]) }
}

// step moves live backward over one entry.
func (o *runOpt) step(e *rEnt, live regBits) {
	if u, w, ok := o.def(e); ok {
		live.remove(u, w)
	}
	o.uses(e, func(u, w int32) { live.add(u, w) })
}

// optimize rewrites one pure run given the registers live at its exit
// and returns the instructions to dispatch.
func (o *runOpt) optimize(run []rEnt, exit regBits) []pIns {
	run = o.retarget(run, exit)
	o.forward(run)
	run = o.dropDead(run, exit)
	return o.fuse(run, exit)
}

// retarget rewrites `t ← P(...) … d ← t` into `d ← P(...)` when t is
// dead after the move and no entry between P and the move reads or
// writes t or d (P itself may read either). A rewrite changes no
// liveness after the move, so the live-after sets are computed once and
// dropped moves stay in place, marked, until the run is compacted.
func (o *runOpt) retarget(run []rEnt, exit regBits) []rEnt {
	if !hasKind(run, pMovI, pMovF) {
		return run
	}
	after := o.liveAfter(run, exit)
	dropped := false
	for m := range run {
		e := &run[m]
		if e.p.kind != pMovI && e.p.kind != pMovF {
			continue
		}
		d, t := o.unified(e.r[0], e.p.a), o.unified(e.r[1], e.p.b)
		if d == t || after(m).has(t) {
			continue
		}
		j := m - 1
		for ; j >= 0; j-- {
			x := &run[j]
			if x.in == nil {
				continue // a move dropped earlier
			}
			if o.writes(x, t) {
				break
			}
			if o.writes(x, d) || o.reads(x, t) || o.reads(x, d) {
				j = -1
				break
			}
		}
		if j < 0 {
			continue
		}
		x := &run[j]
		if x.p.kind == pFn || o.writes(x, d) {
			continue
		}
		if _, w, _ := o.def(x); w != 1 {
			continue
		}
		x.p.a = e.p.a
		e.in = nil
		dropped = true
	}
	if !dropped {
		return run
	}
	keep := run[:0]
	for _, e := range run {
		if e.in != nil {
			keep = append(keep, e)
		}
	}
	return keep
}

// hasKind reports whether any entry of the run has one of the kinds.
func hasKind(run []rEnt, kinds ...pKind) bool {
	for i := range run {
		for _, k := range kinds {
			if run[i].p.kind == k {
				return true
			}
		}
	}
	return false
}

// forward propagates move sources and immediates through the run:
// every read of a register holding a copy is redirected to the copy's
// source, and a register holding a scalar immediate folds into its
// consumer's immediate-operand kind where one exists.
func (o *runOpt) forward(run []rEnt) {
	for i := range run {
		e := &run[i]
		if e.p.kind != pFn {
			for f, r := range e.r {
				if r != rUI && r != rUF {
					continue
				}
				fp := e.field(f)
				if ft := o.facts[o.unified(r, *fp)]; ft.kind == factCopy {
					*fp = ft.src
					if r == rUF {
						*fp -= o.sp.nI
					}
				}
			}
			for _, f := range [2]int{2, 1} {
				if r := e.r[f]; r == rUI || r == rUF {
					if ft := o.facts[o.unified(r, *e.field(f))]; ft.kind == factImm && foldImm(&e.p, f, ft) {
						e.r[2] = rNone // the immediate kinds read b only
					}
				}
			}
		}
		o.record(e)
	}
	for _, u := range o.touched {
		o.facts[u] = fact{}
	}
	o.touched = o.touched[:0]
}

// record updates the facts for the entry's def: everything derived
// from the overwritten registers is forgotten, then a scalar move or
// immediate states its new fact.
func (o *runOpt) record(e *rEnt) {
	u, w, ok := o.def(e)
	if !ok {
		return
	}
	if (e.p.kind == pMovI || e.p.kind == pMovF) && e.p.a == e.p.b {
		return // a self-move changes nothing
	}
	k := 0
	for _, v := range o.touched {
		if ft := &o.facts[v]; (v >= u && v < u+w) || (ft.kind == factCopy && ft.src >= u && ft.src < u+w) {
			*ft = fact{}
			continue
		}
		o.touched[k] = v
		k++
	}
	o.touched = o.touched[:k]
	var nf fact
	switch e.p.kind {
	case pImmI:
		nf = fact{kind: factImm, imm: e.p.imm}
	case pImmF:
		nf = fact{kind: factImm, fimm: e.p.fimm}
	case pMovI, pMovF:
		src := o.unified(e.r[1], e.p.b)
		nf = o.facts[src]
		if nf.kind == factNone {
			nf = fact{kind: factCopy, src: src}
		} else if nf.kind == factImm {
			// The move becomes an immediate load so its source can die.
			if e.p.kind == pMovI {
				e.p.kind, e.p.imm = pImmI, nf.imm
			} else {
				e.p.kind, e.p.fimm = pImmF, nf.fimm
			}
			e.r[1] = rNone
		}
	default:
		return
	}
	o.facts[u] = nf
	o.touched = append(o.touched, u)
}

// dropDead removes the pure entries whose destinations are dead where
// they are written.
func (o *runOpt) dropDead(run []rEnt, exit regBits) []rEnt {
	live := o.live
	copy(live, exit)
	keep := len(run)
	for i := len(run) - 1; i >= 0; i-- {
		e := &run[i]
		if !e.effectful() {
			dead := true
			if u, w, ok := o.def(e); ok {
				for v := u; v < u+w && dead; v++ {
					dead = !live.has(v)
				}
			}
			if e.p.kind == pMovI || e.p.kind == pMovF {
				dead = dead || e.p.a == e.p.b
			}
			if dead {
				continue
			}
		}
		o.step(e, live)
		keep--
		run[keep] = *e
	}
	return run[keep:]
}

// fuse merges adjacent multiply/add pairs whose product dies at the add
// (or is overwritten by it) into one multiply-add, and a scaled index
// address whose result dies at the memory access right after it into
// that access.
func (o *runOpt) fuse(run []rEnt, exit regBits) []pIns {
	out := make([]pIns, 0, len(run))
	if !hasKind(run, pMulI64, pMulI64K, pMulI32, pMulF32, pMulF64) {
		for i := range run {
			out = append(out, run[i].p)
		}
		return out
	}
	after := o.liveAfter(run, exit)
	for i := 0; i < len(run); i++ {
		if i+1 < len(run) {
			if f, ok := fusePair(&run[i].p, &run[i+1].p); ok {
				m, a := &run[i].p, &run[i+1].p
				prod := o.unified(run[i].r[0], m.a)
				if m.a == a.a || !after(i+1).has(prod) {
					i++
					if i+1 < len(run) && f.kind == pMaddKI64 && !after(i+1).has(f.a) {
						if acc, ok := fuseAddr(&f, &run[i+1]); ok {
							f = acc
							i++
						}
					}
					out = append(out, f)
					continue
				}
			}
		}
		out = append(out, run[i].p)
	}
	return out
}

// fuseAddr folds the index address x (a ← c + b*imm) into the inline
// memory access e that takes its address from x's result, which is
// dead after e. A store of the address itself is left alone.
func fuseAddr(x *pIns, e *rEnt) (pIns, bool) {
	if !e.effectful() || e.p.b != x.a || (e.p.kind == pStoreInt && e.p.a == x.a) {
		return pIns{}, false
	}
	m := e.p
	m.b, m.c, m.imm = x.c, x.b, x.imm
	return m, true
}

// foldImm rewrites p so operand field f (1 = b, 2 = c) reads the
// immediate ft instead of a register, if p's kind has an
// immediate-operand form for that position, and reports whether it
// did. Commutative kinds take the immediate from either side; a
// subtraction of an immediate becomes an addition of its negation
// (exact under wrapping, and for any non-NaN float).
func foldImm(p *pIns, f int, ft fact) bool {
	folded := false
	iK := func(k pKind, v int64) {
		if f == 1 {
			p.b = p.c
		}
		p.kind, p.imm, folded = k, v, true
	}
	fK := func(k pKind, v float64) {
		if f == 1 {
			p.b = p.c
		}
		p.kind, p.fimm, folded = k, v, true
	}
	if math.IsNaN(ft.fimm) {
		return false
	}
	switch p.kind {
	case pAddI64:
		iK(pAddI64K, ft.imm)
	case pAddI32:
		iK(pAddI32K, ft.imm)
	case pAddU32:
		iK(pAddU32K, ft.imm)
	case pMulI64:
		iK(pMulI64K, ft.imm)
	case pMulI32:
		iK(pMulI32K, ft.imm)
	case pMulU32:
		iK(pMulU32K, ft.imm)
	case pCmpEqI:
		iK(pCmpEqIK, ft.imm)
	case pCmpNeI:
		iK(pCmpNeIK, ft.imm)
	case pAddF32:
		fK(pAddF32K, ft.fimm)
	case pAddF64:
		fK(pAddF64K, ft.fimm)
	case pMulF32:
		fK(pMulF32K, ft.fimm)
	case pMulF64:
		fK(pMulF64K, ft.fimm)
	case pCmpEqF:
		fK(pCmpEqFK, ft.fimm)
	case pCmpNeF:
		fK(pCmpNeFK, ft.fimm)
	}
	if folded || f != 2 {
		return folded
	}
	switch p.kind {
	case pSubI64:
		iK(pAddI64K, -ft.imm)
	case pSubI32:
		iK(pAddI32K, -ft.imm)
	case pSubU32:
		iK(pAddU32K, -ft.imm)
	case pShlI64:
		iK(pShlI64K, ft.imm&63)
	case pShlI32:
		iK(pShlI32K, ft.imm&31)
	case pShrS64:
		iK(pShrS64K, ft.imm&63)
	case pShrS32:
		iK(pShrS32K, ft.imm&31)
	case pCmpLtS:
		iK(pCmpLtSK, ft.imm)
	case pCmpLtU:
		iK(pCmpLtUK, ft.imm)
	case pCmpLeS:
		iK(pCmpLeSK, ft.imm)
	case pCmpLeU:
		iK(pCmpLeUK, ft.imm)
	case pSubF32:
		fK(pAddF32K, -ft.fimm)
	case pSubF64:
		fK(pAddF64K, -ft.fimm)
	case pCmpLtF:
		fK(pCmpLtFK, ft.fimm)
	case pCmpLeF:
		fK(pCmpLeFK, ft.fimm)
	}
	return folded
}
