package dataflow

import (
	"fmt"
	"slices"

	"maligo/internal/clc/ir"
)

// DefUse holds SSA-style def-use chains computed by classic reaching
// definitions over (bank, slot) pairs. Because lowering reuses slots
// for named variables, a use can see several reaching definitions;
// the chains enumerate all of them.
//
// The reaching sets are dense bitsets over definition points, one
// point per (defining instruction, slot it writes). Points are
// numbered slot by slot — integer slots first, then float slots — and
// in code order within a slot, so the definitions of one slot are a
// contiguous run.
type DefUse struct {
	g    *Graph
	numI int
	// first[k] is the first point of slot key k (an integer slot s has
	// key s, a float slot NumI+s); first[k+1] ends its run.
	first []int
	site  []int    // point -> defining instruction
	in    []bitset // per block: points reaching its entry
}

// bitset is a fixed-size set of small non-negative integers.
type bitset []uint64

func (s bitset) add(p int)      { s[p/64] |= 1 << (p % 64) }
func (s bitset) has(p int) bool { return s[p/64]&(1<<(p%64)) != 0 }

// DefUse lazily computes and caches the def-use chains.
func (f *Facts) DefUse() *DefUse {
	if f.du == nil {
		f.du = buildDefUse(f.G)
	}
	return f.du
}

// key returns the dense slot key of one register slot, or -1 outside
// the kernel's banks.
func (du *DefUse) key(bank int, slot int32) int {
	k := int(slot)
	if bank == ir.BankF {
		k += du.numI
	}
	if slot < 0 || k >= len(du.first)-1 || (bank == ir.BankI && k >= du.numI) {
		return -1
	}
	return k
}

func buildDefUse(g *Graph) *DefUse {
	k := g.Kernel
	code := k.Code
	du := &DefUse{g: g, numI: k.NumI, first: make([]int, k.NumI+k.NumF+1)}

	// Number the definition points: count per slot, then fill each
	// slot's run in code order.
	for i := range code {
		if d, ok := ir.Def(&code[i]); ok {
			for s := d.Slot; s < d.Slot+d.Width; s++ {
				kk := du.key(d.Bank, s)
				if kk < 0 {
					panic(fmt.Sprintf("dataflow: %s instr %d writes bank %d slot %d outside I=%d F=%d",
						k.Name, i, d.Bank, s, k.NumI, k.NumF))
				}
				du.first[kk+1]++
			}
		}
	}
	for i := 1; i < len(du.first); i++ {
		du.first[i] += du.first[i-1]
	}
	npts := du.first[len(du.first)-1]
	du.site = make([]int, npts)
	next := append([]int(nil), du.first[:len(du.first)-1]...)
	for i := range code {
		if d, ok := ir.Def(&code[i]); ok {
			for s := d.Slot; s < d.Slot+d.Width; s++ {
				kk := du.key(d.Bank, s)
				du.site[next[kk]] = i
				next[kk]++
			}
		}
	}

	// Per-block gen (the last definition of each slot written in the
	// block) and kill (every definition of those slots) sets.
	nb := len(g.Blocks)
	words := (npts + 63) / 64
	sets := make([]uint64, 4*nb*words)
	set := func(i int) bitset { return bitset(sets[i*words : (i+1)*words]) }
	gen, kill, out := make([]bitset, nb), make([]bitset, nb), make([]bitset, nb)
	du.in = make([]bitset, nb)
	for b := 0; b < nb; b++ {
		gen[b], kill[b], out[b], du.in[b] = set(4*b), set(4*b+1), set(4*b+2), set(4*b+3)
	}
	last := make([]int, len(du.first)-1) // slot key -> last in-block def + 1
	for _, b := range g.Blocks {
		var written []int
		for i := b.Start; i < b.End; i++ {
			if d, ok := ir.Def(&code[i]); ok {
				for s := d.Slot; s < d.Slot+d.Width; s++ {
					kk := du.key(d.Bank, s)
					if last[kk] == 0 {
						written = append(written, kk)
					}
					last[kk] = i + 1
				}
			}
		}
		for _, kk := range written {
			for p := du.first[kk]; p < du.first[kk+1]; p++ {
				kill[b.ID].add(p)
				if du.site[p] == last[kk]-1 {
					gen[b.ID].add(p)
				}
			}
			last[kk] = 0
		}
	}

	// Iterate out = gen ∪ (in − kill), in = ∪ out(preds) to the least
	// fixpoint.
	work := append([]int(nil), g.RPO...)
	queued := make([]bool, nb)
	for _, b := range work {
		queued[b] = true
	}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false
		changed := false
		for w := range out[b] {
			nw := out[b][w] | gen[b][w] | du.in[b][w]&^kill[b][w]
			if nw != out[b][w] {
				out[b][w] = nw
				changed = true
			}
		}
		if !changed {
			// No growth; successors already saw this state.
			continue
		}
		for _, s := range g.Blocks[b].Succs {
			grew := false
			for w, v := range out[b] {
				if nw := du.in[s][w] | v; nw != du.in[s][w] {
					du.in[s][w] = nw
					grew = true
				}
			}
			if grew && !queued[s] {
				queued[s] = true
				work = append(work, s)
			}
		}
	}
	return du
}

// DefsAt returns the definition sites whose values can reach the use
// of register r at instruction i, sorted ascending.
func (du *DefUse) DefsAt(i int, r ir.RegRef) []int {
	blk := du.g.BlockOf(i)
	code := du.g.Kernel.Code
	var defs []int
	// Walk the block prefix: the last in-block def of each slot wins.
	resolved := make([]bool, r.Width)
	for j := i - 1; j >= blk.Start; j-- {
		d, ok := ir.Def(&code[j])
		if !ok || !d.Overlaps(r) {
			continue
		}
		hit := false
		for s := max(d.Slot, r.Slot); s < min(d.Slot+d.Width, r.Slot+r.Width); s++ {
			if !resolved[s-r.Slot] {
				resolved[s-r.Slot] = true
				hit = true
			}
		}
		if hit {
			defs = append(defs, j)
		}
	}
	in := du.in[blk.ID]
	for s := r.Slot; s < r.Slot+r.Width; s++ {
		kk := du.key(r.Bank, s)
		if resolved[s-r.Slot] || kk < 0 {
			continue
		}
		for p := du.first[kk]; p < du.first[kk+1]; p++ {
			if in.has(p) {
				defs = append(defs, du.site[p])
			}
		}
	}
	slices.Sort(defs)
	return slices.Compact(defs)
}

// UsesOf returns the instruction indices that may use the value
// defined at instruction def, sorted ascending.
func (du *DefUse) UsesOf(def int) []int {
	d, ok := ir.Def(&du.g.Kernel.Code[def])
	if !ok {
		return nil
	}
	var uses []int
	code := du.g.Kernel.Code
	for i := range code {
		hit := false
		ir.Uses(&code[i], func(r ir.RegRef) {
			if hit || !r.Overlaps(d) {
				return
			}
			for _, rd := range du.DefsAt(i, r) {
				if rd == def {
					hit = true
					return
				}
			}
		})
		if hit {
			uses = append(uses, i)
		}
	}
	return uses
}
