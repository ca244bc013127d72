package analysis

import (
	"fmt"

	"maligo/internal/clc/ast"
	"maligo/internal/clc/builtin"
	"maligo/internal/clc/sema"
	"maligo/internal/clc/token"
	"maligo/internal/platform"
)

// inductionVar recognizes the canonical for-loop shape
// `for (int i = ...; i < ...; i++)` (or += 1) and returns the
// induction variable's symbol.
func inductionVar(res *sema.Result, f *ast.ForStmt) *sema.Symbol {
	var name string
	switch init := f.Init.(type) {
	case *ast.DeclStmt:
		if len(init.Decls) != 1 || init.Decls[0].Init == nil {
			return nil
		}
		name = init.Decls[0].Name
	case *ast.ExprStmt:
		as, ok := init.X.(*ast.AssignExpr)
		if !ok || as.Op != token.ASSIGN {
			return nil
		}
		id, ok := unparen(as.LHS).(*ast.Ident)
		if !ok {
			return nil
		}
		name = id.Name
	default:
		return nil
	}

	var sym *sema.Symbol
	post := unparen(f.Post)
	switch p := post.(type) {
	case *ast.PostfixExpr:
		if p.Op != token.INC {
			return nil
		}
		sym = symOf(res, p.X)
	case *ast.UnaryExpr:
		if p.Op != token.INC {
			return nil
		}
		sym = symOf(res, p.X)
	case *ast.AssignExpr:
		if p.Op != token.ADD_ASSIGN {
			return nil
		}
		if v, ok := constEval(res, p.RHS); !ok || v != 1 {
			return nil
		}
		sym = symOf(res, p.LHS)
	default:
		return nil
	}
	if sym == nil || sym.Name != name {
		return nil
	}
	return sym
}

// globalScalarParam reports whether e indexes a __global or
// __constant pointer parameter with a scalar element type, returning
// the parameter symbol.
func globalScalarParam(res *sema.Result, e *ast.IndexExpr) *sema.Symbol {
	sym := symOf(res, e.X)
	if sym == nil || sym.Kind != sema.SymParam || sym.Type == nil || !sym.Type.IsPointer() {
		return nil
	}
	if sym.Type.Space != ast.GlobalSpace && sym.Type.Space != ast.ConstantSpace {
		return nil
	}
	if sym.Type.Elem == nil || !sym.Type.Elem.IsScalar() {
		return nil
	}
	return sym
}

// irTripByLine maps source lines of loop headers to the exact trip
// count the dataflow engine derived (-1 for uncounted loops). Syntax
// passes use it to attach iteration facts to for-statements. The map
// is built once per kernel and shared, so callers only read it.
func irTripByLine(c *Context) map[int]int64 {
	if c.trips != nil {
		return c.trips
	}
	trips := map[int]int64{}
	c.trips = trips
	f := c.Facts()
	if f == nil {
		return trips
	}
	code := c.IR.Code
	for _, l := range f.Loops() {
		hb := f.G.Blocks[l.Header]
		for i := hb.Start; i < hb.End && i < len(code); i++ {
			if line := code[i].Pos.Line; line > 0 {
				trips[line] = l.Trip
			}
		}
	}
	return trips
}

// passVectorize flags unit-stride scalar accesses to global memory
// inside loops: the paper's headline Mali optimization is rewriting
// such loops with vloadN/vstoreN so the load/store pipeline moves
// 128-bit lines instead of scalars. Kernels that already operate on
// wide vectors are skipped, as are loops the dataflow engine proves
// execute at most once (no stride to coalesce).
func passVectorize(c *Context) {
	if c.IR != nil && c.IR.MaxVectorWidth >= 4 {
		return // already vectorized
	}
	trips := irTripByLine(c)
	walkStmts(c.Fn.Body, func(s ast.Stmt) {
		f, ok := s.(*ast.ForStmt)
		if !ok {
			return
		}
		ind := inductionVar(c.Sema, f)
		if ind == nil {
			return
		}
		if f.Cond != nil {
			if trip, ok := trips[f.Cond.Pos().Line]; ok && trip >= 0 && trip < 2 {
				return // executes at most once: nothing to vectorize
			}
		}
		isVar := func(e ast.Expr) bool { return symOf(c.Sema, e) == ind }
		seen := make(map[*sema.Symbol]bool)
		allExprs(f.Body, func(e ast.Expr) {
			ix, ok := e.(*ast.IndexExpr)
			if !ok {
				return
			}
			sym := globalScalarParam(c.Sema, ix)
			if sym == nil || seen[sym] {
				return
			}
			if stride, ok := strideOf(c.Sema, ix.Index, isVar); ok && stride == 1 {
				seen[sym] = true
				c.Report(Warning, ix.Pos(),
					fmt.Sprintf("scalar %s access '%s[...]' in a unit-stride loop", sym.Type.Space, sym.Name),
					"use vload4/vstore4 (or a vector element type) so each access moves a 128-bit line")
			}
		})
	})
}

// passConstParam flags __global pointer parameters that are only read
// but not declared const; the paper's §V-D shows const/restrict
// qualifiers enabling measurable speedups on Mali.
func passConstParam(c *Context) {
	written := writtenPointerParams(c)
	for _, p := range c.Fn.Params {
		pt := c.Sema.ParamTypes[p]
		if pt == nil || !pt.IsPointer() || pt.Space != ast.GlobalSpace || pt.Const {
			continue
		}
		if written[p] {
			continue
		}
		c.Report(Info, p.NamePos,
			fmt.Sprintf("pointer parameter '%s' is never written; declare it const", p.Name),
			"read-only buffers let the compiler cache loads and relax ordering")
	}
}

// passRestrictParam flags kernels with two or more mutable __global
// pointer parameters where some lack restrict: without it the
// compiler must assume aliasing and cannot reorder loads across
// stores.
func passRestrictParam(c *Context) {
	var global []*ast.Param
	for _, p := range c.Fn.Params {
		pt := c.Sema.ParamTypes[p]
		if pt != nil && pt.IsPointer() && pt.Space == ast.GlobalSpace {
			global = append(global, p)
		}
	}
	if len(global) < 2 {
		return // a single buffer cannot alias another parameter
	}
	for _, p := range global {
		if c.Sema.ParamTypes[p].Restrict {
			continue
		}
		c.Report(Info, p.NamePos,
			fmt.Sprintf("pointer parameter '%s' may alias other buffer parameters; declare it restrict", p.Name),
			"restrict lets the compiler overlap loads with stores to other buffers")
	}
}

// writtenPointerParams returns the set of pointer parameters the
// kernel may write through: assignment/inc-dec targets, vstore
// destinations, atomic operands, and pointers passed to helper
// functions (conservatively assumed written).
func writtenPointerParams(c *Context) map[*ast.Param]bool {
	written := make(map[*sema.Symbol]bool)
	mark := func(sym *sema.Symbol) {
		if sym != nil {
			written[sym] = true
		}
	}
	allExprs(c.Fn.Body, func(e ast.Expr) {
		assignTargets(c.Sema, e, mark)
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return
		}
		info := c.Sema.Calls[call]
		if info == nil {
			return
		}
		switch info.Kind {
		case sema.CallBuiltin:
			if _, ok := info.Builtin.IsVstore(); ok && len(call.Args) == 3 {
				mark(baseSym(c.Sema, call.Args[2]))
			}
			if info.Builtin.IsAtomic() && len(call.Args) > 0 {
				mark(baseSym(c.Sema, call.Args[0]))
			}
		case sema.CallUser:
			for _, a := range call.Args {
				if sym := symOf(c.Sema, a); sym != nil && sym.Type != nil && sym.Type.IsPointer() {
					mark(sym)
				}
			}
		}
	})
	out := make(map[*ast.Param]bool)
	for sym := range written { // maligo:allow maporder fills another map keyed by the same symbols
		if p, ok := sym.Decl.(*ast.Param); ok && written[sym] {
			out[p] = true
		}
	}
	return out
}

// passCopyPrivate flags loops that stage __global data into a private
// array element by element. On a discrete GPU that hides latency; on
// the unified-memory SoC of the paper the "copy" just moves bytes
// through the same LPDDR controller twice (§V-A argues mapping over
// copying for the same reason on the host side).
func passCopyPrivate(c *Context) {
	walkStmts(c.Fn.Body, func(s ast.Stmt) {
		switch s.(type) {
		case *ast.ForStmt, *ast.WhileStmt, *ast.DoWhileStmt:
		default:
			return
		}
		var body ast.Stmt
		switch l := s.(type) {
		case *ast.ForStmt:
			body = l.Body
		case *ast.WhileStmt:
			body = l.Body
		case *ast.DoWhileStmt:
			body = l.Body
		}
		reported := make(map[*sema.Symbol]bool)
		allExprs(body, func(e ast.Expr) {
			as, ok := e.(*ast.AssignExpr)
			if !ok {
				return
			}
			lhs, ok := unparen(as.LHS).(*ast.IndexExpr)
			if !ok {
				return
			}
			dst := symOf(c.Sema, lhs.X)
			if dst == nil || dst.Kind != sema.SymArray || dst.Space != ast.PrivateSpace || reported[dst] {
				return
			}
			fromGlobal := false
			walkExprs(as.RHS, func(r ast.Expr) {
				if ix, ok := r.(*ast.IndexExpr); ok && globalScalarParam(c.Sema, ix) != nil {
					fromGlobal = true
				}
			})
			if fromGlobal {
				reported[dst] = true
				c.Report(Warning, as.Pos(),
					fmt.Sprintf("loop copies __global data into private array '%s' element by element", dst.Name),
					"the SoC has one physical memory; index the __global pointer directly or vload into registers")
			}
		})
	})
}

// passSoA flags constant-strided accesses to global buffers indexed
// by work-item id — the signature of an array-of-structures layout.
// A structure-of-arrays layout makes the same accesses unit-stride so
// consecutive work-items touch consecutive addresses (§V-C).
func passSoA(c *Context) {
	env := newAffineEnv(c.Sema, c.Fn)
	// A "work-item index" is get_global_id/get_local_id(0) itself or a
	// local derived from it with unit coefficient.
	isItemVar := func(e ast.Expr) bool {
		if id, dim, ok := workItemCall(c.Sema, e); ok && dim == 0 &&
			(id == builtin.GetGlobalID || id == builtin.GetLocalID) {
			return true
		}
		if sym := symOf(c.Sema, e); sym != nil {
			if v, ok := env.vals[sym]; ok && v.lidCoeff() == 1 {
				return true
			}
		}
		return false
	}
	type key struct {
		sym    *sema.Symbol
		stride int64
	}
	seen := make(map[key]bool)
	allExprs(c.Fn.Body, func(e ast.Expr) {
		ix, ok := e.(*ast.IndexExpr)
		if !ok {
			return
		}
		sym := globalScalarParam(c.Sema, ix)
		if sym == nil {
			return
		}
		stride, ok := strideOf(c.Sema, ix.Index, isItemVar)
		if !ok || stride < 2 || stride > 16 {
			return
		}
		k := key{sym, stride}
		if seen[k] {
			return
		}
		seen[k] = true
		c.Report(Warning, ix.Pos(),
			fmt.Sprintf("stride-%d access to '%s' indexed by work-item id suggests an AoS layout", stride, sym.Name),
			"split the structure into per-field arrays (SoA) so consecutive work-items access consecutive elements")
	})
}

// loopVarName extracts the variable initialized in a for-statement's
// init clause, for diagnostic display only.
func loopVarName(f *ast.ForStmt) string {
	switch init := f.Init.(type) {
	case *ast.DeclStmt:
		if len(init.Decls) == 1 {
			return init.Decls[0].Name
		}
	case *ast.ExprStmt:
		if as, ok := init.X.(*ast.AssignExpr); ok {
			if id, ok := unparen(as.LHS).(*ast.Ident); ok {
				return id.Name
			}
		}
	}
	return ""
}

// passUnroll flags loops with a small constant trip count: the
// simulated sequencer charges per-iteration branch overhead that
// manual unrolling removes (§V-E). Trip counts come from the dataflow
// engine's loop recognizer, so non-unit steps and folded bounds are
// handled (`for (j = 0; j <= 8; j += 2)` has trip count 5).
func passUnroll(c *Context) {
	trips := irTripByLine(c)
	walkStmts(c.Fn.Body, func(s ast.Stmt) {
		f, ok := s.(*ast.ForStmt)
		if !ok || f.Cond == nil {
			return
		}
		trip, ok := trips[f.Cond.Pos().Line]
		if !ok || trip < 2 || trip > 8 {
			return
		}
		name := loopVarName(f)
		if name == "" {
			return
		}
		c.Report(Info, f.Pos(),
			fmt.Sprintf("loop over '%s' has constant trip count %d", name, trip),
			"unroll it manually; short loops pay more in branches than in body work")
	})
}

// passRegBudget compares the lowered kernel's estimated register
// demand against the platform's per-thread budget — the static
// version of the CL_OUT_OF_RESOURCES failures the paper hits when
// combining wide vectors with double precision.
func passRegBudget(c *Context) {
	if c.IR == nil {
		return
	}
	demand := float64(c.IR.RegisterFootprint()) * platform.GPURegFootprintScale
	if demand <= platform.GPUMaxRegBytesPerThread {
		return
	}
	c.Report(Warning, c.Fn.Pos(),
		fmt.Sprintf("estimated register demand %.0f B/thread exceeds the %.0f B budget; enqueue will fail with CL_OUT_OF_RESOURCES",
			demand, platform.GPUMaxRegBytesPerThread),
		"narrow vector widths, prefer float over double, or split the kernel")
}
