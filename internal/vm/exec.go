package vm

import (
	"encoding/binary"
	"fmt"
	"math"

	"maligo/internal/clc/builtin"
	"maligo/internal/clc/ir"
	"maligo/internal/clc/types"
)

// run executes the current work-item until it returns or, when
// stopAtBarrier is set, until it executes a barrier. On barrier the
// state's pc points past the barrier so execution resumes correctly.
func (r *groupRunner) run(st *wiState, stopAtBarrier bool) error {
	if st.pc == 0 && !st.atBar {
		r.bindArgs(st)
	}
	code := r.k.Code
	prof := r.prof
	for {
		if st.pc < 0 || st.pc >= len(code) {
			return fmt.Errorf("vm: pc %d out of range in kernel %s", st.pc, r.k.Name)
		}
		in := &code[st.pc]
		st.pc++
		r.steps++
		if r.steps > r.limit {
			return ErrStepLimit
		}
		prof.Instrs++
		w := int(in.Width)
		if w == 0 {
			w = 1
		}
		switch in.Op {
		case ir.Nop:
		case ir.MovI:
			copy(st.ii[in.A:int(in.A)+w], st.ii[in.B:int(in.B)+w])
		case ir.MovF:
			copy(st.ff[in.A:int(in.A)+w], st.ff[in.B:int(in.B)+w])
		case ir.ImmI:
			for l := 0; l < w; l++ {
				st.ii[int(in.A)+l] = in.Imm
			}
		case ir.ImmF:
			for l := 0; l < w; l++ {
				st.ff[int(in.A)+l] = in.FImm
			}
		case ir.BcastI:
			v := st.ii[in.B]
			for l := 0; l < w; l++ {
				st.ii[int(in.A)+l] = v
			}
		case ir.BcastF:
			v := st.ff[in.B]
			for l := 0; l < w; l++ {
				st.ff[int(in.A)+l] = v
			}

		case ir.AddI, ir.SubI, ir.MulI, ir.DivI, ir.RemI,
			ir.AndI, ir.OrI, ir.XorI, ir.ShlI, ir.ShrI:
			countInt(prof, in.Base, w)
			execIntBin(in, st, w)
		case ir.NegI:
			countInt(prof, in.Base, w)
			for l := 0; l < w; l++ {
				st.ii[int(in.A)+l] = wrapInt(in.Base, -st.ii[int(in.B)+l])
			}
		case ir.NotI:
			countInt(prof, in.Base, w)
			for l := 0; l < w; l++ {
				st.ii[int(in.A)+l] = wrapInt(in.Base, ^st.ii[int(in.B)+l])
			}

		case ir.AddF, ir.SubF, ir.MulF, ir.DivF:
			countFloat(prof, in.Base, w)
			execFloatBin(in, st, w)
		case ir.NegF:
			countFloat(prof, in.Base, w)
			for l := 0; l < w; l++ {
				st.ff[int(in.A)+l] = roundBase(in.Base, -st.ff[int(in.B)+l])
			}

		case ir.CmpEqI, ir.CmpNeI, ir.CmpLtI, ir.CmpLeI:
			countInt(prof, in.Base, w)
			execIntCmp(in, st, w)
		case ir.CmpEqF, ir.CmpNeF, ir.CmpLtF, ir.CmpLeF:
			countFloat(prof, in.Base, w)
			execFloatCmp(in, st, w)

		case ir.SelI:
			countInt(prof, in.Base, w)
			for l := 0; l < w; l++ {
				if st.ii[int(in.B)+l] != 0 {
					st.ii[int(in.A)+l] = st.ii[int(in.C)+l]
				} else {
					st.ii[int(in.A)+l] = st.ii[int(in.D)+l]
				}
			}
		case ir.SelF:
			countFloat(prof, in.Base, w)
			for l := 0; l < w; l++ {
				if st.ii[int(in.B)+l] != 0 {
					st.ff[int(in.A)+l] = st.ff[int(in.C)+l]
				} else {
					st.ff[int(in.A)+l] = st.ff[int(in.D)+l]
				}
			}

		case ir.CvtII:
			countInt(prof, in.Base, w)
			for l := 0; l < w; l++ {
				v := st.ii[int(in.B)+l]
				if in.Base == types.Bool {
					if v != 0 {
						v = 1
					}
				} else {
					v = wrapInt(in.Base, v)
				}
				st.ii[int(in.A)+l] = v
			}
		case ir.CvtIF:
			countFloat(prof, in.Base, w)
			for l := 0; l < w; l++ {
				var f float64
				if in.Base2.IsSigned() || in.Base2 == types.Bool {
					f = float64(st.ii[int(in.B)+l])
				} else {
					f = float64(uint64(st.ii[int(in.B)+l]))
				}
				st.ff[int(in.A)+l] = roundBase(in.Base, f)
			}
		case ir.CvtFI:
			countInt(prof, in.Base, w)
			for l := 0; l < w; l++ {
				f := st.ff[int(in.B)+l]
				var v int64
				switch {
				case math.IsNaN(f):
					v = 0
				case f >= math.MaxInt64:
					v = math.MaxInt64
				case f <= math.MinInt64:
					v = math.MinInt64
				default:
					v = int64(f)
				}
				st.ii[int(in.A)+l] = wrapInt(in.Base, v)
			}
		case ir.CvtFF:
			countFloat(prof, in.Base, w)
			for l := 0; l < w; l++ {
				st.ff[int(in.A)+l] = roundBase(in.Base, st.ff[int(in.B)+l])
			}

		case ir.LoadI, ir.LoadF:
			if err := r.execLoad(in, st, w); err != nil {
				return err
			}
		case ir.StoreI, ir.StoreF:
			if err := r.execStore(in, st, w); err != nil {
				return err
			}

		case ir.CallB:
			if err := r.execBuiltin(in, st, w); err != nil {
				return err
			}
		case ir.AtomicOp:
			if err := r.execAtomic(in, st); err != nil {
				return err
			}
		case ir.BarrierOp:
			prof.Barriers++
			if stopAtBarrier {
				st.atBar = true
				return nil
			}
			// Single-item groups (or the fast path, which is only used
			// for barrier-free kernels) treat barrier as a no-op.

		case ir.Jmp:
			st.pc = int(in.Imm)
		case ir.JmpIf:
			if st.ii[in.B] != 0 {
				st.pc = int(in.Imm)
			}
		case ir.JmpIfZ:
			if st.ii[in.B] == 0 {
				st.pc = int(in.Imm)
			}
		case ir.Ret:
			st.done = true
			return nil
		default:
			return fmt.Errorf("vm: unknown opcode %v", in.Op)
		}
	}
}

func countFloat(prof *Profile, base types.Base, w int) {
	if base == types.Double {
		prof.F64Instrs++
		prof.F64Lanes += uint64(w)
	} else {
		prof.F32Instrs++
		prof.F32Lanes += uint64(w)
	}
	prof.ArithSlots128 += slots128(base, w)
}

// countInt accounts one integer arithmetic instruction of width w.
func countInt(prof *Profile, base types.Base, w int) {
	prof.IntInstrs++
	prof.IntLanes += uint64(w)
	prof.ArithSlots128 += slots128(base, w)
}

// slots128 is the number of 128-bit SIMD issue slots an instruction of
// the given element type and lane count occupies.
func slots128(base types.Base, w int) uint64 {
	size := base.Size()
	if size == 0 {
		size = 4
	}
	n := (w*size + 15) / 16
	if n < 1 {
		n = 1
	}
	return uint64(n)
}

// wrapInt reduces v modulo the base's size with the base's signedness.
func wrapInt(base types.Base, v int64) int64 {
	switch base {
	case types.Bool:
		if v != 0 {
			return 1
		}
		return 0
	case types.Char:
		return int64(int8(v))
	case types.UChar:
		return int64(uint8(v))
	case types.Short:
		return int64(int16(v))
	case types.UShort:
		return int64(uint16(v))
	case types.Int:
		return int64(int32(v))
	case types.UInt:
		return int64(uint32(v))
	}
	return v // long/ulong: native width
}

// roundBase applies float32 rounding when base is Float.
func roundBase(base types.Base, f float64) float64 {
	if base == types.Float {
		return float64(float32(f))
	}
	return f
}

func execIntBin(in *ir.Instr, st *wiState, w int) {
	signed := in.Base.IsSigned()
	size := in.Base.Size()
	for l := 0; l < w; l++ {
		a := st.ii[int(in.B)+l]
		b := st.ii[int(in.C)+l]
		var v int64
		switch in.Op {
		case ir.AddI:
			v = a + b
		case ir.SubI:
			v = a - b
		case ir.MulI:
			v = a * b
		case ir.DivI:
			if b == 0 {
				v = 0
			} else if signed {
				v = a / b
			} else {
				v = int64(uint64(a) / uint64(b))
			}
		case ir.RemI:
			if b == 0 {
				v = 0
			} else if signed {
				v = a % b
			} else {
				v = int64(uint64(a) % uint64(b))
			}
		case ir.AndI:
			v = a & b
		case ir.OrI:
			v = a | b
		case ir.XorI:
			v = a ^ b
		case ir.ShlI:
			v = a << (uint64(b) & uint64(size*8-1))
		case ir.ShrI:
			sh := uint64(b) & uint64(size*8-1)
			if signed {
				v = a >> sh
			} else {
				switch size {
				case 1:
					v = int64(uint8(a) >> sh)
				case 2:
					v = int64(uint16(a) >> sh)
				case 4:
					v = int64(uint32(a) >> sh)
				default:
					v = int64(uint64(a) >> sh)
				}
			}
		}
		st.ii[int(in.A)+l] = wrapInt(in.Base, v)
	}
}

func execFloatBin(in *ir.Instr, st *wiState, w int) {
	for l := 0; l < w; l++ {
		a := st.ff[int(in.B)+l]
		b := st.ff[int(in.C)+l]
		var v float64
		switch in.Op {
		case ir.AddF:
			v = a + b
		case ir.SubF:
			v = a - b
		case ir.MulF:
			v = a * b
		case ir.DivF:
			v = a / b
		}
		st.ff[int(in.A)+l] = roundBase(in.Base, v)
	}
}

func execIntCmp(in *ir.Instr, st *wiState, w int) {
	signed := in.Base.IsSigned()
	for l := 0; l < w; l++ {
		a := st.ii[int(in.B)+l]
		b := st.ii[int(in.C)+l]
		var t bool
		switch in.Op {
		case ir.CmpEqI:
			t = a == b
		case ir.CmpNeI:
			t = a != b
		case ir.CmpLtI:
			if signed {
				t = a < b
			} else {
				t = uint64(a) < uint64(b)
			}
		case ir.CmpLeI:
			if signed {
				t = a <= b
			} else {
				t = uint64(a) <= uint64(b)
			}
		}
		if t {
			st.ii[int(in.A)+l] = 1
		} else {
			st.ii[int(in.A)+l] = 0
		}
	}
}

func execFloatCmp(in *ir.Instr, st *wiState, w int) {
	for l := 0; l < w; l++ {
		a := st.ff[int(in.B)+l]
		b := st.ff[int(in.C)+l]
		var t bool
		switch in.Op {
		case ir.CmpEqF:
			t = a == b
		case ir.CmpNeF:
			t = a != b
		case ir.CmpLtF:
			t = a < b
		case ir.CmpLeF:
			t = a <= b
		}
		if t {
			st.ii[int(in.A)+l] = 1
		} else {
			st.ii[int(in.A)+l] = 0
		}
	}
}

// --- memory ------------------------------------------------------------------

// loadBits reads size bytes at a tagged address.
func (r *groupRunner) loadBits(addr int64, size int) (uint64, error) {
	space, off := ir.DecodeAddr(addr)
	switch space {
	case ir.SpaceLocal:
		return sliceLoad(r.local, off, size)
	case ir.SpacePrivate:
		return sliceLoad(r.cur.priv, off, size)
	default:
		return r.cfg.Mem.LoadBits(space, off, size)
	}
}

func (r *groupRunner) storeBits(addr int64, size int, bits uint64) error {
	space, off := ir.DecodeAddr(addr)
	switch space {
	case ir.SpaceLocal:
		return sliceStore(r.local, off, size, bits)
	case ir.SpacePrivate:
		return sliceStore(r.cur.priv, off, size, bits)
	default:
		return r.cfg.Mem.StoreBits(space, off, size, bits)
	}
}

func sliceLoad(mem []byte, off int64, size int) (uint64, error) {
	if off < 0 || off+int64(size) > int64(len(mem)) {
		return 0, fmt.Errorf("vm: out-of-bounds load at offset %d (size %d, arena %d)", off, size, len(mem))
	}
	switch size {
	case 4:
		return uint64(binary.LittleEndian.Uint32(mem[off:])), nil
	case 8:
		return binary.LittleEndian.Uint64(mem[off:]), nil
	case 1:
		return uint64(mem[off]), nil
	case 2:
		return uint64(binary.LittleEndian.Uint16(mem[off:])), nil
	}
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(mem[off+int64(i)])
	}
	return v, nil
}

func sliceStore(mem []byte, off int64, size int, bits uint64) error {
	if off < 0 || off+int64(size) > int64(len(mem)) {
		return fmt.Errorf("vm: out-of-bounds store at offset %d (size %d, arena %d)", off, size, len(mem))
	}
	switch size {
	case 4:
		binary.LittleEndian.PutUint32(mem[off:], uint32(bits))
		return nil
	case 8:
		binary.LittleEndian.PutUint64(mem[off:], bits)
		return nil
	case 1:
		mem[off] = byte(bits)
		return nil
	case 2:
		binary.LittleEndian.PutUint16(mem[off:], uint16(bits))
		return nil
	}
	for i := 0; i < size; i++ {
		mem[off+int64(i)] = byte(bits >> (8 * uint(i)))
	}
	return nil
}

func (r *groupRunner) execLoad(in *ir.Instr, st *wiState, w int) error {
	size := in.Base.Size()
	addr := st.ii[in.B]
	space, _ := ir.DecodeAddr(addr)
	r.prof.LoadInstrs++
	r.prof.LSSlots128 += slots128(in.Base, w)
	r.prof.LSLanes += uint64(w)
	if space == ir.SpacePrivate {
		r.prof.PrivateAccesses++
	}
	r.prof.BytesRead[space&3] += uint64(size * w)
	if r.cfg.Observer != nil {
		if r.ctxObs != nil {
			r.ctxObs.OnContext(r.item, r.phase, in.Pos.Line)
		}
		r.cfg.Observer.OnAccess(space, addr, size*w, false)
	}
	for l := 0; l < w; l++ {
		bits, err := r.loadBits(addr+int64(l*size), size)
		if err != nil {
			return err
		}
		if in.Op == ir.LoadF {
			st.ff[int(in.A)+l] = bitsToFloat(in.Base, bits)
		} else {
			st.ii[int(in.A)+l] = bitsToInt(in.Base, bits)
		}
	}
	return nil
}

func (r *groupRunner) execStore(in *ir.Instr, st *wiState, w int) error {
	size := in.Base.Size()
	addr := st.ii[in.B]
	space, _ := ir.DecodeAddr(addr)
	r.prof.StoreInstrs++
	r.prof.LSSlots128 += slots128(in.Base, w)
	r.prof.LSLanes += uint64(w)
	if space == ir.SpacePrivate {
		r.prof.PrivateAccesses++
	}
	r.prof.BytesWritten[space&3] += uint64(size * w)
	if r.cfg.Observer != nil {
		if r.ctxObs != nil {
			r.ctxObs.OnContext(r.item, r.phase, in.Pos.Line)
		}
		r.cfg.Observer.OnAccess(space, addr, size*w, true)
	}
	for l := 0; l < w; l++ {
		var bits uint64
		if in.Op == ir.StoreF {
			bits = floatToBits(in.Base, st.ff[int(in.A)+l])
		} else {
			bits = intToBits(in.Base, st.ii[int(in.A)+l])
		}
		if err := r.storeBits(addr+int64(l*size), size, bits); err != nil {
			return err
		}
	}
	return nil
}

func bitsToFloat(base types.Base, bits uint64) float64 {
	if base == types.Float {
		return float64(math.Float32frombits(uint32(bits)))
	}
	return math.Float64frombits(bits)
}

func floatToBits(base types.Base, f float64) uint64 {
	if base == types.Float {
		return uint64(math.Float32bits(float32(f)))
	}
	return math.Float64bits(f)
}

func bitsToInt(base types.Base, bits uint64) int64 {
	switch base.Size() {
	case 1:
		if base.IsSigned() {
			return int64(int8(bits))
		}
		return int64(uint8(bits))
	case 2:
		if base.IsSigned() {
			return int64(int16(bits))
		}
		return int64(uint16(bits))
	case 4:
		if base.IsSigned() {
			return int64(int32(bits))
		}
		return int64(uint32(bits))
	}
	return int64(bits)
}

func intToBits(base types.Base, v int64) uint64 {
	switch base.Size() {
	case 1:
		return uint64(uint8(v))
	case 2:
		return uint64(uint16(v))
	case 4:
		return uint64(uint32(v))
	}
	return uint64(v)
}

// --- atomics -----------------------------------------------------------------

func (r *groupRunner) execAtomic(in *ir.Instr, st *wiState) error {
	addr := st.ii[in.B]
	space, off := ir.DecodeAddr(addr)
	size := in.Base.Size()
	op := AtomicOp{id: builtin.ID(in.Imm), base: in.Base, operand: st.ii[in.C], cmp: st.ii[in.D]}

	r.prof.Atomics++
	r.prof.LoadInstrs++
	r.prof.StoreInstrs++
	r.prof.LSSlots128 += 2
	r.prof.LSLanes += 2
	r.prof.BytesRead[space&3] += uint64(size)
	r.prof.BytesWritten[space&3] += uint64(size)
	if r.cfg.Observer != nil {
		if r.ctxObs != nil {
			r.ctxObs.OnContext(r.item, r.phase, in.Pos.Line)
		}
		r.cfg.Observer.OnAccess(space, addr, size, true)
		r.cfg.Observer.OnAtomic(space, addr, size)
	}

	var oldBits uint64
	var err error
	switch space {
	case ir.SpaceLocal:
		oldBits, err = sliceLoad(r.local, off, size)
		if err == nil {
			err = sliceStore(r.local, off, size, op.Apply(oldBits))
		}
	case ir.SpacePrivate:
		oldBits, err = sliceLoad(r.cur.priv, off, size)
		if err == nil {
			err = sliceStore(r.cur.priv, off, size, op.Apply(oldBits))
		}
	default:
		oldBits, err = r.cfg.Mem.AtomicRMW(space, off, size, op)
	}
	if err != nil {
		return err
	}
	st.ii[in.A] = bitsToInt(in.Base, oldBits)
	return nil
}

// AtomicOp is one atomic read-modify-write, as the VM hands it to
// GlobalMemory.AtomicRMW. It is a plain value, so passing it through
// the interface allocates nothing.
type AtomicOp struct {
	id      builtin.ID
	base    types.Base
	operand int64
	cmp     int64
}

// Apply returns the new bits of the word given its old bits.
func (op AtomicOp) Apply(oldBits uint64) uint64 {
	old := bitsToInt(op.base, oldBits)
	operand := op.operand
	signed := op.base.IsSigned()
	var v int64
	switch op.id {
	case builtin.AtomicAdd:
		v = old + operand
	case builtin.AtomicSub:
		v = old - operand
	case builtin.AtomicInc:
		v = old + 1
	case builtin.AtomicDec:
		v = old - 1
	case builtin.AtomicXchg:
		v = operand
	case builtin.AtomicMin:
		if (signed && operand < old) || (!signed && uint64(operand) < uint64(old)) {
			v = operand
		} else {
			v = old
		}
	case builtin.AtomicMax:
		if (signed && operand > old) || (!signed && uint64(operand) > uint64(old)) {
			v = operand
		} else {
			v = old
		}
	case builtin.AtomicAnd:
		v = old & operand
	case builtin.AtomicOr:
		v = old | operand
	case builtin.AtomicXor:
		v = old ^ operand
	case builtin.AtomicCmpXchg:
		if old == operand {
			v = op.cmp
		} else {
			v = old
		}
	default:
		v = old
	}
	return intToBits(op.base, v)
}
