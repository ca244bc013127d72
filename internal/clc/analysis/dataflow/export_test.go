package dataflow

import (
	"fmt"
	"sort"
	"strings"

	"maligo/internal/clc/ir"
)

// GoldenFacts solves k and renders every fact the engine produces in a
// canonical order, independent of how the solver stores its state:
// per-block entry facts (non-top entries only), edge executability,
// the divergence-influenced blocks, the reaching definitions of every
// register use, and the recognized loops.
func GoldenFacts(k *ir.Kernel) string { return RenderFacts(Analyze(k)) }

// RenderFacts is GoldenFacts for facts already solved, read against
// the kernel their graph points at.
func RenderFacts(f *Facts) string {
	g := f.G
	k := g.Kernel
	var b strings.Builder
	fmt.Fprintf(&b, "kernel %s I=%d F=%d blocks=%d\n", k.Name, k.NumI, k.NumF, len(g.Blocks))

	for _, blk := range g.Blocks {
		fmt.Fprintf(&b, "block %d [%d,%d) succs=%v", blk.ID, blk.Start, blk.End, blk.Succs)
		for si := range blk.Succs {
			fmt.Fprintf(&b, " e%d=%v", si, f.executable(blk.ID, si))
		}
		e := f.in[blk.ID]
		if e == nil {
			b.WriteString(" unreached\n")
			continue
		}
		b.WriteByte('\n')
		for s := int32(0); s < int32(k.NumI); s++ {
			iv, af, dv := e.interval(s), e.affine(s), e.divergent(ir.BankI, s)
			if iv.IsTop() && !af.OK && !dv {
				continue
			}
			fmt.Fprintf(&b, "  i%d", s)
			if !iv.IsTop() {
				fmt.Fprintf(&b, " %v", iv)
			}
			if af.OK {
				fmt.Fprintf(&b, " %v", af)
			}
			if dv {
				b.WriteString(" div")
			}
			b.WriteByte('\n')
		}
		for s := int32(0); s < int32(k.NumF); s++ {
			if e.divergent(ir.BankF, s) {
				fmt.Fprintf(&b, "  f%d div\n", s)
			}
		}
	}

	var infl []int
	for blk, v := range f.infl {
		if v {
			infl = append(infl, blk)
		}
	}
	fmt.Fprintf(&b, "influenced %v\n", infl)

	du := f.DefUse()
	for i := range k.Code {
		ir.Uses(&k.Code[i], func(r ir.RegRef) {
			bank := "i"
			if r.Bank == ir.BankF {
				bank = "f"
			}
			fmt.Fprintf(&b, "use %d %s%d:%d <- %v\n", i, bank, r.Slot, r.Width, du.DefsAt(i, r))
		})
	}

	for _, l := range f.Loops() {
		blocks := make([]int, 0, len(l.Blocks))
		for blk := range l.Blocks {
			blocks = append(blocks, blk)
		}
		sort.Ints(blocks)
		fmt.Fprintf(&b, "loop header=%d latch=%d blocks=%v trip=%d", l.Header, l.Latch, blocks, l.Trip)
		if l.Counted {
			fmt.Fprintf(&b, " counted iv=i%d step=%d cmp=%d op=%v bound=i%d", l.IV, l.Step, l.CmpAt, l.CmpOp, l.BoundSlot)
			if l.BoundConst {
				fmt.Fprintf(&b, "=%d", l.Bound)
			}
			fmt.Fprintf(&b, " inc=%v", l.IncAt)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
