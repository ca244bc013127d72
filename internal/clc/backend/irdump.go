package backend

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"maligo/internal/clc/builtin"
	"maligo/internal/clc/ir"
	"maligo/internal/clc/types"
)

// irDumpVersion is bumped on any change to the dump grammar.
const irDumpVersion = 1

// IRDump renders the versioned canonical textual form of a kernel.
//
// The format is line-oriented and complete: every Instr field that
// affects execution appears (operands, immediates with exact float
// bits, width, both bases, source position), so a dump fully
// determines engine behaviour and two kernels dump equal iff they
// execute identically. Equal kernels produce byte-equal dumps. The
// version header guards snapshot churn: any format change must bump
// it.
func IRDump(k *ir.Kernel) ([]byte, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "; maligo irdump v%d\n", irDumpVersion)
	fmt.Fprintf(&b, "kernel %s\n", k.Name)
	for i, p := range k.Params {
		fmt.Fprintf(&b, "param %d name=%s type=%s class=%s slot=%d space=%s\n",
			i, p.Name, p.Type, paramClassName(p.Class), p.Slot, p.Space)
	}
	fmt.Fprintf(&b, "regs i=%d f=%d bytes=%d maxvec=%d\n",
		k.NumI, k.NumF, k.RegBytes, k.MaxVectorWidth)
	fmt.Fprintf(&b, "mem local=%d private=%d\n", k.LocalBytes, k.PrivateBytes)
	fmt.Fprintf(&b, "flags double=%t barrier=%t restrict=%d const=%d\n",
		k.UsesDouble, k.UsesBarrier, k.RestrictParams, k.ConstParams)
	for _, a := range k.Arrays {
		fmt.Fprintf(&b, "array name=%s space=%s off=%d bytes=%d elem=%d len=%d\n",
			a.Name, spaceName(a.Space), a.Offset, a.Bytes, a.ElemSize, a.Len)
	}
	fmt.Fprintf(&b, "code %d\n", len(k.Code))
	for i := range k.Code {
		in := &k.Code[i]
		fmt.Fprintf(&b, "%5d  %-8s", i, in.Op)
		fmt.Fprintf(&b, " a=%d b=%d c=%d d=%d", in.A, in.B, in.C, in.D)
		switch in.Op {
		case ir.ImmF:
			fmt.Fprintf(&b, " fimm=%s/%#016x", formatFloat(in.FImm), math.Float64bits(in.FImm))
		case ir.CallB, ir.AtomicOp:
			fmt.Fprintf(&b, " imm=%d(%s)", in.Imm, builtin.ID(in.Imm))
		default:
			if in.Imm != 0 || in.Op == ir.ImmI || in.Op == ir.Jmp || in.Op == ir.JmpIf || in.Op == ir.JmpIfZ {
				fmt.Fprintf(&b, " imm=%d", in.Imm)
			}
		}
		if in.Width > 1 {
			fmt.Fprintf(&b, " w=%d", in.Width)
		}
		if in.Base != types.Invalid {
			fmt.Fprintf(&b, " base=%s", in.Base)
		}
		if in.Base2 != types.Invalid {
			fmt.Fprintf(&b, " base2=%s", in.Base2)
		}
		if in.Pos.IsValid() {
			fmt.Fprintf(&b, " @%s", in.Pos)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "end %s\n", k.Name)
	return []byte(b.String()), nil
}

func paramClassName(c ir.ParamClass) string {
	switch c {
	case ir.ParamScalarI:
		return "scalari"
	case ir.ParamScalarF:
		return "scalarf"
	case ir.ParamGlobalPtr:
		return "globalptr"
	case ir.ParamLocalPtr:
		return "localptr"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

func spaceName(s int) string {
	switch s {
	case ir.SpaceGlobal:
		return "global"
	case ir.SpaceLocal:
		return "local"
	case ir.SpaceConstant:
		return "constant"
	case ir.SpacePrivate:
		return "private"
	}
	return fmt.Sprintf("space(%d)", s)
}

// formatFloat renders f round-trip exactly; the paired bit pattern in
// the dump removes any residual ambiguity (NaN payloads, -0).
func formatFloat(f float64) string {
	switch {
	case math.IsNaN(f):
		return "nan"
	case math.IsInf(f, 1):
		return "+inf"
	case math.IsInf(f, -1):
		return "-inf"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}
