package opt

import (
	"maligo/internal/clc/ast"
	"maligo/internal/clc/ir"
)

// runConstRestrict promotes the Section V-D qualifiers the dataflow
// engine can justify:
//
//   - `const` on a __global pointer parameter when no store or atomic
//     in the kernel can target its buffer — every memory write must be
//     affine-attributable to some *other* parameter or to a non-global
//     space; a single unattributable write blocks all promotions.
//   - `restrict` on the __global pointer parameters when *every*
//     global-space access in the kernel is attributable to exactly one
//     parameter with coefficient 1. Address chains that mix two
//     parameters (the aliased-candidate case) collapse to affine top
//     and veto the promotion.
//
// Promotion never changes VM semantics — qualifiers are compiler
// hints — so it is unconditionally bit-identical. What it changes is
// downstream behavior: the device model's load/store scheduling
// quality and, crucially, the vectorizer's aliasing rules, which
// trust restrict. The in-kernel proof extends to the host under the
// same contract real OpenCL restrict demands: distinct buffer
// arguments do not overlap (malid jobs and the harness always
// allocate distinct buffers).
func runConstRestrict(c *passCtx) bool {
	k, f := c.k, c.facts

	attribs := c.memAttribs()
	writtenParam := make([]bool, len(k.Params))
	unknownWrite, unknownGlobal := false, false
	for i := range k.Code {
		in := &k.Code[i]
		if !isMemOp(in.Op) || !f.Reachable(i) {
			continue
		}
		write := isStoreOp(in.Op) || in.Op == ir.AtomicOp
		a := attribs[i]
		if a.param >= 0 {
			if write {
				writtenParam[a.param] = true
			}
			continue
		}
		// Known non-global spaces (local, private, constant) cannot
		// overlap a __global buffer; anything else might.
		if a.space == ir.SpaceLocal || a.space == ir.SpacePrivate || a.space == ir.SpaceConstant {
			continue
		}
		unknownGlobal = true
		if write {
			unknownWrite = true
		}
	}

	applied := false
	for pi := range k.Params {
		p := &k.Params[pi]
		if p.Class != ir.ParamGlobalPtr || p.Space != ast.GlobalSpace || p.Type == nil {
			continue
		}
		if !p.Type.Const && !writtenParam[pi] && !unknownWrite {
			t := cloneType(p.Type)
			t.Const = true
			p.Type = t
			k.ConstParams++
			c.sites++
			applied = true
			c.note("param %s: promoted to const (no store reaches its buffer)", p.Name)
		} else if !p.Type.Const && (writtenParam[pi] || unknownWrite) {
			reason := "a store targets its buffer"
			if !writtenParam[pi] {
				reason = "an unattributable store could target it"
			}
			c.note("param %s: const refused (%s)", p.Name, reason)
		}
		if !p.Type.Restrict && !unknownGlobal {
			t := cloneType(p.Type)
			t.Restrict = true
			p.Type = t
			k.RestrictParams++
			c.sites++
			applied = true
			c.note("param %s: promoted to restrict (every global access attributes to one param)", p.Name)
		} else if !p.Type.Restrict && unknownGlobal {
			c.note("param %s: restrict refused (global access not attributable to a single param)", p.Name)
		}
	}
	return applied
}
