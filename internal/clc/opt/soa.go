package opt

import (
	"sort"

	"maligo/internal/clc/ir"
	"maligo/internal/clc/types"
)

// soaMaxStride bounds the recognized interleave factor (a real AoS
// "struct" wider than 16 fields is not a layout the paper's §V-C
// transformation targets).
const soaMaxStride = 16

// runSoA relayouts in-kernel __local/__private scratch arrays from
// array-of-structures to structure-of-arrays (§V-C): element index
// e = S*q + c becomes e' = c*R + q (R = len/S), putting each
// component c into its own contiguous plane so lid-strided accesses
// coalesce. Global buffers are out of scope by design — their layout
// is host-visible ABI, and rewriting it would break result
// bit-identity, which is the one contract no pass may trade away.
//
// Soundness: the relayout is a bijection on the array's extent, and
// it fires only when *every* memory access in the kernel is either
// provably disjoint from the array or decomposes as a scalar access
// with constant component c and provably in-extent address, each such
// site getting an address fixup (new = base + c*R*es + (rel-c*es)/S).
// Any unattributable access refuses the whole array.
func runSoA(c *passCtx) bool {
	k, f := c.k, c.facts

	type site struct {
		instr int
		coef  int64 // strided sites: bytes advanced per unit of the varying index
		rel0  int64 // byte offset of the site at varying index 0
	}
	type candidate struct {
		arr   ir.ArrayDecl
		sites []site
	}

	// Map each instruction inside a recognized loop body to its
	// linear address forms.
	inBody := map[int]lin{}
	for _, l := range f.Loops() {
		if s, _ := recognizeShape(f, l); s != nil {
			bl := analyzeBody(f, s)
			for i, li := range bl.addr { // maligo:allow maporder distinct keys fill the index map
				inBody[i] = li
			}
		}
	}

	attribs := c.memAttribs()

	var applied bool
	var fixups []struct {
		instr   int
		strided bool
		encBase int64
		c, S, R int64
		es      int64
		newAddr int64 // const sites
	}

	for _, arr := range k.Arrays {
		if arr.Space != ir.SpaceLocal && arr.Space != ir.SpacePrivate {
			continue
		}
		if arr.ElemSize <= 0 || arr.Len < 4 {
			continue
		}
		encBase := ir.EncodeAddr(arr.Space, arr.Offset)
		lo, hi := encBase, encBase+arr.Bytes
		cand := candidate{arr: arr}
		refused := ""

		for i := range k.Code {
			in := &k.Code[i]
			if !isMemOp(in.Op) || !f.Reachable(i) {
				continue
			}
			ival := f.IntervalBefore(i, in.B)
			inside := ival.Lo >= lo && ival.Hi < hi
			outside := ival.Hi < lo || ival.Lo >= hi
			if !inside && !outside {
				// The interval alone cannot separate this access from
				// the array; attribute it symbolically. Any pointer
				// parameter is disjoint from a declared array: global
				// and constant buffers live in other spaces, and
				// host-provided __local pointer args are laid out after
				// the declared arrays at bind time.
				if a := attribs[i]; a.param >= 0 || (a.space >= 0 && a.space != arr.Space) {
					continue
				}
				refused = "an access cannot be proven inside or outside the array"
				break
			}
			if outside {
				continue
			}
			if in.Op == ir.AtomicOp {
				refused = "an atomic operates on the array"
				break
			}
			if in.Width > 1 {
				refused = "a vector-wide access spans reinterleaved elements"
				break
			}
			// Inside: derive the linear/affine decomposition.
			var coef, rel0 int64
			if li, ok := inBody[i]; ok && li.ok && len(li.terms) == 0 {
				coef, rel0 = li.coef, li.off-encBase
			} else if af := f.AffineBefore(i, in.B); af.OK && af.SymC == 0 &&
				(af.Lid == 0 || af.Gid == 0) {
				if af.Lid != 0 {
					coef = af.Lid
				} else {
					coef = af.Gid
				}
				rel0 = af.C - encBase
			} else {
				refused = "an in-array address is not linear in a single index"
				break
			}
			es := arr.ElemSize
			if rel0%es != 0 || coef%es != 0 {
				refused = "an in-array access is not element-aligned"
				break
			}
			cand.sites = append(cand.sites, site{instr: i, coef: coef, rel0: rel0})
		}
		if refused != "" {
			c.note("array %s: %s", arr.Name, refused)
			continue
		}

		// Interleave factor: gcd of the element-unit strides of every
		// varying site; constant sites fit any factor.
		es := arr.ElemSize
		S := int64(0)
		for _, st := range cand.sites {
			if st.coef != 0 {
				S = gcd64(S, st.coef/es)
			}
		}
		if S == 0 {
			c.note("array %s: no strided accesses (nothing to deinterleave)", arr.Name)
			continue
		}
		if S < 2 || S > soaMaxStride || arr.Len%S != 0 {
			c.note("array %s: stride %d is not an AoS interleave of len %d", arr.Name, S, arr.Len)
			continue
		}
		R := arr.Len / S
		comps := map[int64]bool{}
		ok := true
		for _, st := range cand.sites {
			cc := floorMod(st.rel0/es, S)
			comps[cc] = true
			// The fixup divides (rel - c*es) by S; that is exact only
			// when the varying part advances in whole structs.
			if st.coef != 0 && (st.coef/es)%S != 0 {
				ok = false
			}
			if st.rel0/es-cc < 0 {
				ok = false
			}
		}
		if !ok {
			c.note("array %s: access strides disagree with interleave %d", arr.Name, S)
			continue
		}
		if len(comps) < 2 {
			c.note("array %s: single component accessed; relayout would be a no-op", arr.Name)
			continue
		}

		for _, st := range cand.sites {
			cc := floorMod(st.rel0/es, S)
			fx := struct {
				instr   int
				strided bool
				encBase int64
				c, S, R int64
				es      int64
				newAddr int64
			}{instr: st.instr, strided: st.coef != 0, encBase: encBase, c: cc, S: S, R: R, es: es}
			if !fx.strided {
				q := (st.rel0/es - cc) / S
				fx.newAddr = encBase + (cc*R+q)*es
			}
			fixups = append(fixups, fx)
		}
		c.sites += len(cand.sites)
		applied = true
		c.note("array %s: relayout AoS[%d x %d] -> SoA (%d sites rewritten)", arr.Name, R, S, len(cand.sites))
	}

	if !applied {
		return false
	}

	// Two shared scratch slots back every fixup (each fixup is
	// straight-line def-before-use at its site).
	t1 := int32(k.NumI)
	t2 := t1 + 1
	k.NumI += 2
	if k.RegBytes > 0 {
		k.RegBytes += 16
	}

	sort.Slice(fixups, func(i, j int) bool { return fixups[i].instr > fixups[j].instr })
	for _, fx := range fixups {
		pos := fx.instr
		b := k.Code[pos].B
		if !fx.strided {
			k.Code = insertAt(k.Code, pos,
				ir.Instr{Op: ir.ImmI, A: t2, Imm: fx.newAddr, Width: 1, Base: types.ULong},
			)
			k.Code[pos+1].B = t2
			continue
		}
		k.Code = insertAt(k.Code, pos,
			ir.Instr{Op: ir.ImmI, A: t1, Imm: fx.encBase + fx.c*fx.es, Width: 1, Base: types.ULong},
			ir.Instr{Op: ir.SubI, A: t2, B: b, C: t1, Width: 1, Base: types.Long},
			ir.Instr{Op: ir.ImmI, A: t1, Imm: fx.S, Width: 1, Base: types.Long},
			ir.Instr{Op: ir.DivI, A: t2, B: t2, C: t1, Width: 1, Base: types.Long},
			ir.Instr{Op: ir.ImmI, A: t1, Imm: fx.encBase + fx.c*fx.R*fx.es, Width: 1, Base: types.ULong},
			ir.Instr{Op: ir.AddI, A: t2, B: t1, C: t2, Width: 1, Base: types.ULong},
		)
		k.Code[pos+6].B = t2
	}
	return true
}

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func floorMod(a, m int64) int64 {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}
