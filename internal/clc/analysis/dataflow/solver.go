package dataflow

import (
	"maligo/internal/clc/ir"
)

// widenAfter is the number of joins into one block before interval
// bounds are widened to infinity, bounding fixpoint iteration.
const widenAfter = 16

// Facts is the analysis result for one kernel: per-block entry
// environments, edge executability, and divergence-influenced blocks,
// with query helpers that replay the transfer function inside a block.
// A Facts is not safe for concurrent use: queries share a scratch
// environment and build their caches lazily.
type Facts struct {
	G *Graph

	in   []*env    // per block; nil = never reached
	exec [][2]bool // per block, per successor position
	infl []bool    // block executes under divergent control

	du      *DefUse
	segs    *segments
	scratch *env   // envBefore's replay buffer
	loops   []Loop // Loops' result; nil until the first call
}

// Analyze runs the dataflow engine over a kernel.
func Analyze(k *ir.Kernel) *Facts {
	g := BuildGraph(k)
	f := &Facts{G: g, infl: make([]bool, len(g.Blocks))}
	// Divergence-influenced blocks force their definitions divergent,
	// which can make more branch conditions divergent; iterate to a
	// fixpoint (monotone, bounded by the block count).
	for round := 0; ; round++ {
		f.in, f.exec = solve(g, f.infl)
		next := f.influenced()
		grew := false
		for b, v := range next {
			if v && !f.infl[b] {
				f.infl[b] = true
				grew = true
			}
		}
		if !grew || round > len(g.Blocks) {
			break
		}
	}
	return f
}

// Rebind returns the same solved facts for k, which must be an
// unmodified deep clone of the kernel f was solved for: the solve
// depends only on the code, the register banks and the parameters'
// classes, slots and scalar bases, all of which a clone shares. The
// per-block results and the recognized loops are shared with f; the
// graph points at k, and the def-use chains, barrier phases and replay
// buffer are rebuilt against k on first use, so a caller that rewrites
// k reads exactly what a fresh Analyze(k) at the same moment would
// give it.
func (f *Facts) Rebind(k *ir.Kernel) *Facts {
	old := f.G.Kernel
	if len(k.Code) != len(old.Code) || k.NumI != old.NumI || k.NumF != old.NumF || len(k.Params) != len(old.Params) {
		panic("dataflow: Rebind to a kernel that is not a clone of the solved one")
	}
	g := *f.G
	g.Kernel = k
	return &Facts{G: &g, in: f.in, exec: f.exec, infl: f.infl, loops: f.loops}
}

// solve runs the combined worklist iteration and returns per-block
// entry environments plus per-block edge executability, indexed by
// successor position (a block has at most two successors).
func solve(g *Graph, forced []bool) ([]*env, [][2]bool) {
	in := make([]*env, len(g.Blocks))
	exec := make([][2]bool, len(g.Blocks))
	joins := make([]int, len(g.Blocks))
	// Edge environments are built in two reused buffers; a block's
	// entry environment is allocated once, when it is first reached.
	outs := [2]*env{newEnv(g.Kernel), newEnv(g.Kernel)}

	in[0] = entryEnv(g.Kernel)
	work := []int{0}
	queued := make([]bool, len(g.Blocks))
	queued[0] = true
	steps := 0
	maxSteps := (len(g.Blocks) + 1) * 256

	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false
		steps++
		forceWiden := steps > maxSteps

		ex := flowBlock(g, b, in[b], forced[b], outs)
		for si, s := range g.Blocks[b].Succs {
			if !ex[si] {
				// Executability is monotone: keep any earlier true.
				continue
			}
			exec[b][si] = true
			changed := false
			if in[s] == nil {
				in[s] = outs[si].clone()
				changed = true
			} else {
				joins[s]++
				changed = joinInto(in[s], outs[si], joins[s] > widenAfter || forceWiden)
			}
			if changed && !queued[s] {
				queued[s] = true
				work = append(work, s)
			}
		}
	}
	return in, exec
}

// flowBlock transfers an entry environment through a block and splits
// it per outgoing edge, applying branch refinement. The environment of
// successor si is written to outs[si]; the result reports whether each
// edge is executable.
func flowBlock(g *Graph, b int, entry *env, forced bool, outs [2]*env) (ex [2]bool) {
	blk := g.Blocks[b]
	code := g.Kernel.Code
	e := outs[0]
	e.copyFrom(entry)
	term := blk.Terminator()
	for i := blk.Start; i < blk.End; i++ {
		if i == term {
			break
		}
		transfer(e, &code[i], forced)
	}

	nsucc := len(blk.Succs)
	branch := term >= 0 && (code[term].Op == ir.JmpIf || code[term].Op == ir.JmpIfZ)
	if term >= 0 && !branch {
		transfer(e, &code[term], forced)
	}
	if nsucc > 1 {
		outs[1].copyFrom(e)
	}
	if !branch {
		for si := 0; si < nsucc; si++ {
			ex[si] = true
		}
		return ex
	}

	t := &code[term]
	cond := e.interval(t.B)
	mayNonzero := cond.Lo != 0 || cond.Hi != 0
	mayZero := cond.Contains(0)
	// Successor 0 is the jump target, successor 1 the fallthrough. For
	// JmpIf the target is the nonzero ("true") edge; for JmpIfZ it is
	// the zero ("false") edge.
	condTrue := [2]bool{t.Op == ir.JmpIf, t.Op != ir.JmpIf}
	for si := 0; si < nsucc; si++ {
		if condTrue[si] {
			ex[si] = mayNonzero
		} else {
			ex[si] = mayZero
		}
		if refineEdge(g, blk, term, outs[si], condTrue[si]) {
			ex[si] = false
		}
	}
	return ex
}

// refineEdge narrows the edge environment under the branch condition
// (cond != 0 when condTrue). Returns true when the refinement is
// unsatisfiable, i.e. the edge cannot execute.
func refineEdge(g *Graph, blk *Block, term int, e *env, condTrue bool) bool {
	code := g.Kernel.Code
	cond := code[term].B

	// The condition register itself.
	cv := e.interval(cond)
	if condTrue {
		if cv.Lo == 0 {
			cv.Lo = 1
		}
		if cv.Hi == 0 {
			cv.Hi = -1
		}
	} else {
		cv = Interval{0, 0}
	}
	if cv.Empty() {
		return true
	}
	e.setIV(cond, cv)

	// If the condition was produced by an integer compare whose
	// operands survive to the branch, narrow the operands too.
	def := condDef(code, blk, term)
	if def < 0 {
		return false
	}
	d := &code[def]
	switch d.Op {
	case ir.CmpLtI, ir.CmpLeI, ir.CmpEqI, ir.CmpNeI:
	default:
		return false
	}
	if d.Width > 1 {
		return false
	}
	if !d.Base.IsSigned() {
		// Unsigned compares only refine when both sides are known
		// nonnegative (otherwise slot values don't order like int64).
		if e.interval(d.B).Lo < 0 || e.interval(d.C).Lo < 0 {
			return false
		}
	}
	b, c := e.interval(d.B), e.interval(d.C)
	op := d.Op
	truth := condTrue
	for {
		switch {
		case op == ir.CmpLtI && truth:
			b.Hi = min64(b.Hi, addSat(c.Hi, -1))
			c.Lo = max64(c.Lo, addSat(b.Lo, 1))
		case op == ir.CmpLtI: // !(b < c)  =>  b >= c
			b.Lo = max64(b.Lo, c.Lo)
			c.Hi = min64(c.Hi, b.Hi)
		case op == ir.CmpLeI && truth:
			b.Hi = min64(b.Hi, c.Hi)
			c.Lo = max64(c.Lo, b.Lo)
		case op == ir.CmpLeI: // b > c
			b.Lo = max64(b.Lo, addSat(c.Lo, 1))
			c.Hi = min64(c.Hi, addSat(b.Hi, -1))
		case op == ir.CmpEqI && truth:
			b.Lo, b.Hi = max64(b.Lo, c.Lo), min64(b.Hi, c.Hi)
			c = b
		case op == ir.CmpEqI: // b != c: trim constant boundaries
			if k, ok := c.Const(); ok {
				if b.Lo == k {
					b.Lo = addSat(k, 1)
				}
				if b.Hi == k {
					b.Hi = addSat(k, -1)
				}
			}
			if k, ok := b.Const(); ok {
				if c.Lo == k {
					c.Lo = addSat(k, 1)
				}
				if c.Hi == k {
					c.Hi = addSat(k, -1)
				}
			}
		case op == ir.CmpNeI:
			op, truth = ir.CmpEqI, !truth
			continue
		}
		break
	}
	if b.Empty() || c.Empty() {
		return true
	}
	e.setIV(d.B, b)
	e.setIV(d.C, c)
	return false
}

// condDef locates the last in-block definition of the branch condition
// register before the terminator, provided the compared operands are
// not clobbered between the definition and the branch.
func condDef(code []ir.Instr, blk *Block, term int) int {
	cond := ir.RegRef{Bank: ir.BankI, Slot: code[term].B, Width: 1}
	def := -1
	for i := term - 1; i >= blk.Start; i-- {
		if d, ok := ir.Def(&code[i]); ok && d.Overlaps(cond) {
			def = i
			break
		}
	}
	if def < 0 {
		return -1
	}
	d := &code[def]
	ops := []ir.RegRef{
		{Bank: ir.BankI, Slot: d.B, Width: 1},
		{Bank: ir.BankI, Slot: d.C, Width: 1},
	}
	for i := def + 1; i < term; i++ {
		if w, ok := ir.Def(&code[i]); ok {
			for _, o := range ops {
				if w.Overlaps(o) {
					return -1
				}
			}
		}
	}
	return def
}

// influenced returns the divergence-influence set: for every branch
// with a divergent condition and both edges live, the blocks on paths
// from the branch to its immediate postdominator.
func (f *Facts) influenced() []bool {
	g := f.G
	out := make([]bool, len(g.Blocks))
	for _, b := range g.RPO {
		blk := g.Blocks[b]
		term := blk.Terminator()
		if term < 0 {
			continue
		}
		t := &g.Kernel.Code[term]
		if t.Op != ir.JmpIf && t.Op != ir.JmpIfZ {
			continue
		}
		if !f.executable(b, 0) || !f.executable(b, 1) {
			continue
		}
		if !f.CondDivergent(term) {
			continue
		}
		stop := g.PostIdom[b]
		var mark func(x int)
		seen := make([]bool, len(g.Blocks))
		mark = func(x int) {
			if x == stop || seen[x] {
				return
			}
			seen[x] = true
			out[x] = true
			for _, s := range g.Blocks[x].Succs {
				mark(s)
			}
		}
		for _, s := range blk.Succs {
			mark(s)
		}
	}
	return out
}

// executable reports whether successor edge si of block b can run.
func (f *Facts) executable(b, si int) bool { return f.exec[b][si] }

// envBefore returns the environment immediately before instruction i,
// or nil when the instruction is unreachable. The result lives in a
// scratch buffer that the next call overwrites.
func (f *Facts) envBefore(i int) *env {
	blk := f.G.BlockOf(i)
	if f.in[blk.ID] == nil {
		return nil
	}
	if f.scratch == nil {
		f.scratch = newEnv(f.G.Kernel)
	}
	e := f.scratch
	e.copyFrom(f.in[blk.ID])
	for j := blk.Start; j < i; j++ {
		transfer(e, &f.G.Kernel.Code[j], f.infl[blk.ID])
	}
	return e
}

// Reachable reports whether instruction i can execute.
func (f *Facts) Reachable(i int) bool {
	return f.in[f.G.BlockOf(i).ID] != nil
}

// IntervalBefore returns the value range of an integer slot just
// before instruction i.
func (f *Facts) IntervalBefore(i int, slot int32) Interval {
	e := f.envBefore(i)
	if e == nil {
		return Top
	}
	return e.interval(slot)
}

// IntervalAfter returns the value range of an integer slot just after
// instruction i executes.
func (f *Facts) IntervalAfter(i int, slot int32) Interval {
	e := f.envBefore(i)
	if e == nil {
		return Top
	}
	transfer(e, &f.G.Kernel.Code[i], f.infl[f.G.BlockOf(i).ID])
	return e.interval(slot)
}

// AffineBefore returns the affine form of an integer slot just before
// instruction i.
func (f *Facts) AffineBefore(i int, slot int32) Affine {
	e := f.envBefore(i)
	if e == nil {
		return Affine{}
	}
	return e.affine(slot)
}

// DivergentBefore reports whether a slot's value may differ between
// work-items of one group just before instruction i.
func (f *Facts) DivergentBefore(i int, bank int, slot int32) bool {
	e := f.envBefore(i)
	if e == nil {
		return false
	}
	return e.divergent(bank, slot)
}

// CondDivergent reports whether the condition of the branch at
// instruction i is divergent.
func (f *Facts) CondDivergent(i int) bool {
	return f.DivergentBefore(i, ir.BankI, f.G.Kernel.Code[i].B)
}

// DivergentControl reports whether instruction i executes under
// divergent control flow (some work-items of a group may reach it
// while others do not).
func (f *Facts) DivergentControl(i int) bool {
	return f.infl[f.G.BlockOf(i).ID]
}

// Each visits every reachable instruction in code order along with the
// environment in force just before it. The environment is reused
// between callbacks: snapshot any fact you need to keep.
func (f *Facts) Each(fn func(i int, e *Env)) {
	code := f.G.Kernel.Code
	e := newEnv(f.G.Kernel)
	for _, blk := range f.G.Blocks {
		if blk.ID == f.G.Exit || f.in[blk.ID] == nil {
			continue
		}
		e.copyFrom(f.in[blk.ID])
		view := &Env{e: e, infl: f.infl[blk.ID]}
		for i := blk.Start; i < blk.End; i++ {
			fn(i, view)
			transfer(e, &code[i], f.infl[blk.ID])
		}
	}
}

// Env is a read-only view of the dataflow state at one program point,
// as passed to Each callbacks.
type Env struct {
	e    *env
	infl bool
}

// Interval returns the value range of an integer slot.
func (v *Env) Interval(slot int32) Interval { return v.e.interval(slot) }

// Affine returns the affine form of an integer slot.
func (v *Env) Affine(slot int32) Affine { return v.e.affine(slot) }

// Divergent reports per-work-item divergence of a slot.
func (v *Env) Divergent(bank int, slot int32) bool { return v.e.divergent(bank, slot) }

// DivergentControl reports whether this point executes under divergent
// control flow.
func (v *Env) DivergentControl() bool { return v.infl }

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
