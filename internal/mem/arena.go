package mem

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrOutOfMemory is returned when an allocation exceeds the arena
// capacity (the board has 2 GB; the simulator defaults lower).
var ErrOutOfMemory = errors.New("mem: arena exhausted")

// Arena is the flat simulated physical memory backing the unified
// global address space of the Exynos 5250 (CPU and GPU share it, as
// the paper's zero-copy optimization exploits).
type Arena struct {
	data     []byte
	capacity int64
	next     int64
	count    int64
	allocs   map[int64]int64 // base -> size, live allocations
	onReset  func()
}

// NewArena creates an arena with the given capacity in bytes.
func NewArena(capacity int64) *Arena {
	return &Arena{capacity: capacity, allocs: make(map[int64]int64)}
}

// Alloc reserves size bytes with the given alignment and returns the
// base offset.
func (a *Arena) Alloc(size int64, align int64) (int64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("mem: invalid allocation size %d", size)
	}
	if align <= 0 {
		align = 16
	}
	base := (a.next + align - 1) / align * align
	// Page-coloring jitter: physical allocators hand out pages whose
	// cache-set mappings are decorrelated; without this, large buffers
	// allocated back-to-back land exactly one power-of-two apart and
	// alias pathologically in the low-associativity L1 model.
	base += (a.count % 29) * 1216
	a.count++
	// Overflow-safe form of base+size > capacity: a near-MaxInt64 size
	// must fail cleanly instead of wrapping negative and "fitting".
	if base < 0 || size > a.capacity-base {
		return 0, ErrOutOfMemory
	}
	a.next = base + size
	if need := int(a.next); need > len(a.data) {
		grown := make([]byte, need)
		copy(grown, a.data)
		a.data = grown
	}
	a.allocs[base] = size
	return base, nil
}

// Free releases an allocation. The arena is a bump allocator; freeing
// the most recent allocation reclaims space, otherwise the range is
// just dropped from the live set (matching the short-lived-context
// usage pattern of the benchmarks).
func (a *Arena) Free(base int64) {
	size, ok := a.allocs[base]
	if !ok {
		return
	}
	delete(a.allocs, base)
	if base+size == a.next {
		a.next = base
	}
}

// Reset rewinds the arena to its freshly created state — bump offset,
// page-coloring counter and touched contents — so a pooled context
// hands every job the exact same deterministic address layout as a
// brand-new one. It refuses (returning false) while any allocation is
// still live.
func (a *Arena) Reset() bool {
	if len(a.allocs) != 0 {
		return false
	}
	for i := range a.data {
		a.data[i] = 0
	}
	a.next, a.count = 0, 0
	if a.onReset != nil {
		a.onReset()
	}
	return true
}

// OnReset registers f to run after every successful Reset; the cl
// runtime drops state derived from the old contents there.
func (a *Arena) OnReset(f func()) { a.onReset = f }

// AllocSize returns the size of the live allocation starting at base.
func (a *Arena) AllocSize(base int64) (int64, bool) {
	size, ok := a.allocs[base]
	return size, ok
}

// Capacity returns the arena's total capacity in bytes.
func (a *Arena) Capacity() int64 { return a.capacity }

// Snapshot returns a copy of the arena's touched memory, for
// comparing the full device-visible state of two runs byte by byte.
func (a *Arena) Snapshot() []byte {
	out := make([]byte, len(a.data))
	copy(out, a.data)
	return out
}

// InUse returns the bytes currently allocated.
func (a *Arena) InUse() int64 {
	var n int64
	for _, size := range a.allocs { // maligo:allow maporder sum commutes
		n += size
	}
	return n
}

// Bytes returns the backing storage for the range [off, off+n). The
// checks are written overflow-safe: a negative length or an offset
// that would wrap int64 must error, never slice out of bounds.
func (a *Arena) Bytes(off, n int64) ([]byte, error) {
	if off < 0 || n < 0 || off > int64(len(a.data)) || n > int64(len(a.data))-off {
		return nil, fmt.Errorf("mem: range [%d,+%d) outside arena of %d bytes", off, n, len(a.data))
	}
	return a.data[off : off+n], nil
}

// LoadBits reads a little-endian value of size bytes at off.
func (a *Arena) LoadBits(off int64, size int) (uint64, error) {
	if off < 0 || size < 0 || off > int64(len(a.data))-int64(size) {
		return 0, fmt.Errorf("mem: out-of-bounds load at %d (size %d)", off, size)
	}
	// Single loads for the common element sizes; the generic byte loop
	// only serves odd sizes.
	switch size {
	case 4:
		return uint64(binary.LittleEndian.Uint32(a.data[off:])), nil
	case 8:
		return binary.LittleEndian.Uint64(a.data[off:]), nil
	case 1:
		return uint64(a.data[off]), nil
	case 2:
		return uint64(binary.LittleEndian.Uint16(a.data[off:])), nil
	}
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(a.data[off+int64(i)])
	}
	return v, nil
}

// StoreBits writes a little-endian value of size bytes at off.
func (a *Arena) StoreBits(off int64, size int, bits uint64) error {
	if off < 0 || size < 0 || off > int64(len(a.data))-int64(size) {
		return fmt.Errorf("mem: out-of-bounds store at %d (size %d)", off, size)
	}
	switch size {
	case 4:
		binary.LittleEndian.PutUint32(a.data[off:], uint32(bits))
		return nil
	case 8:
		binary.LittleEndian.PutUint64(a.data[off:], bits)
		return nil
	case 1:
		a.data[off] = byte(bits)
		return nil
	case 2:
		binary.LittleEndian.PutUint16(a.data[off:], uint16(bits))
		return nil
	}
	for i := 0; i < size; i++ {
		a.data[off+int64(i)] = byte(bits >> (8 * uint(i)))
	}
	return nil
}
