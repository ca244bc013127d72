package mem

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCacheHitAfterMiss(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 1024, LineBytes: 64, Ways: 2})
	if m, _ := c.Access(0, 4, false); m != 1 {
		t.Fatalf("first access misses = %d, want 1", m)
	}
	if m, _ := c.Access(0, 4, false); m != 0 {
		t.Fatalf("second access misses = %d, want 0", m)
	}
	if m, _ := c.Access(60, 4, false); m != 0 {
		t.Fatalf("same-line access misses = %d, want 0", m)
	}
}

func TestCacheLineSpanning(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 1024, LineBytes: 64, Ways: 2})
	// A 16-byte access straddling a line boundary touches two lines.
	if m, _ := c.Access(56, 16, false); m != 2 {
		t.Fatalf("straddling access misses = %d, want 2", m)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// One set: 2 ways, 2 sets total (256B / 64B / 2).
	c := NewCache(CacheConfig{SizeBytes: 256, LineBytes: 64, Ways: 2})
	// Lines 0, 2, 4 map to set 0 (even line numbers with 2 sets).
	c.Access(0*64, 4, false)
	c.Access(2*64, 4, false)
	c.Access(0*64, 4, false) // touch 0, making 2 the LRU
	c.Access(4*64, 4, false) // evicts 2
	if m, _ := c.Access(0*64, 4, false); m != 0 {
		t.Fatal("line 0 should have survived (was MRU)")
	}
	if m, _ := c.Access(2*64, 4, false); m != 1 {
		t.Fatal("line 2 should have been evicted (was LRU)")
	}
}

func TestCacheWriteback(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 128, LineBytes: 64, Ways: 1})
	c.Access(0, 4, true) // dirty line 0, set 0
	// Line 2 maps to set 0 too (2 sets? 128/64/1 = 2 sets; line0->set0, line2->set0).
	_, wb := c.Access(2*64, 4, false)
	if wb != 1 {
		t.Fatalf("writebacks = %d, want 1 (dirty eviction)", wb)
	}
	// Clean eviction must not write back.
	_, wb = c.Access(4*64, 4, false)
	if wb != 0 {
		t.Fatalf("writebacks = %d, want 0 (clean eviction)", wb)
	}
}

func TestCacheStatsAndReset(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 1024, LineBytes: 64, Ways: 2})
	c.Access(0, 4, false)
	c.Access(0, 4, false)
	s := c.Stats()
	if s.Accesses != 2 || s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if got := s.MissRate(); got != 0.5 {
		t.Fatalf("MissRate = %v", got)
	}
	c.Reset()
	if c.Stats().Accesses != 0 {
		t.Fatal("Reset did not clear stats")
	}
	if m, _ := c.Access(0, 4, false); m != 1 {
		t.Fatal("Reset did not clear contents")
	}
}

// Property: a working set smaller than one way per set never misses
// after the first pass (LRU must retain it).
func TestCacheSmallWorkingSetProperty(t *testing.T) {
	f := func(seed uint8) bool {
		c := NewCache(CacheConfig{SizeBytes: 4096, LineBytes: 64, Ways: 4})
		base := uint64(seed) * 64
		// 16 lines = 1KB working set in a 4KB cache.
		for pass := 0; pass < 3; pass++ {
			for i := 0; i < 16; i++ {
				m, _ := c.Access(base+uint64(i)*64, 4, false)
				if pass > 0 && m != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestArenaAllocAlignmentAndGrowth(t *testing.T) {
	a := NewArena(1 << 20)
	b1, err := a.Alloc(100, 64)
	if err != nil {
		t.Fatal(err)
	}
	if b1%64 != 0 {
		t.Fatalf("allocation not 64-aligned: %d", b1)
	}
	b2, err := a.Alloc(100, 64)
	if err != nil {
		t.Fatal(err)
	}
	if b2 < b1+100 {
		t.Fatalf("allocations overlap: %d then %d", b1, b2)
	}
	if b2%64 != 0 {
		t.Fatalf("second allocation not aligned: %d", b2)
	}
}

func TestArenaExhaustion(t *testing.T) {
	a := NewArena(4096)
	if _, err := a.Alloc(1<<20, 64); err == nil {
		t.Fatal("oversized allocation should fail")
	}
	if _, err := a.Alloc(-1, 64); err == nil {
		t.Fatal("negative allocation should fail")
	}
}

func TestArenaLoadStore(t *testing.T) {
	a := NewArena(1 << 16)
	base, err := a.Alloc(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.StoreBits(base, 4, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	v, err := a.LoadBits(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xDEADBEEF {
		t.Fatalf("LoadBits = %#x", v)
	}
	// Little-endian byte order.
	raw, err := a.Bytes(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	if raw[0] != 0xEF || raw[3] != 0xDE {
		t.Fatalf("byte order wrong: % x", raw)
	}
	if _, err := a.LoadBits(1<<20, 4); err == nil {
		t.Fatal("out-of-bounds load should fail")
	}
}

// TestArenaOverflowSafe checks near-MaxInt64 sizes and offsets error
// cleanly instead of wrapping negative and "fitting" (or slicing out
// of bounds).
func TestArenaOverflowSafe(t *testing.T) {
	a := NewArena(4096)
	base, err := a.Alloc(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(math.MaxInt64-32, 64); err == nil {
		t.Fatal("near-MaxInt64 allocation should fail, not wrap")
	}
	if _, err := a.Bytes(math.MaxInt64, 16); err == nil {
		t.Fatal("Bytes with MaxInt64 offset should fail")
	}
	if _, err := a.Bytes(base, math.MaxInt64); err == nil {
		t.Fatal("Bytes with MaxInt64 length should fail")
	}
	if _, err := a.Bytes(math.MaxInt64, math.MaxInt64); err == nil {
		t.Fatal("Bytes with wrapping off+n should fail")
	}
	if _, err := a.Bytes(-1, 4); err == nil {
		t.Fatal("Bytes with negative offset should fail")
	}
	if _, err := a.LoadBits(math.MaxInt64-2, 8); err == nil {
		t.Fatal("LoadBits with wrapping off+size should fail")
	}
	if err := a.StoreBits(math.MaxInt64-2, 8, 0); err == nil {
		t.Fatal("StoreBits with wrapping off+size should fail")
	}
	// The valid allocation still works after the rejected ones.
	if err := a.StoreBits(base, 8, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	if v, err := a.LoadBits(base, 8); err != nil || v != 0x1122334455667788 {
		t.Fatalf("round trip after rejections: %#x, %v", v, err)
	}
}

func TestArenaFreeReclaimsTail(t *testing.T) {
	a := NewArena(1 << 16)
	b1, _ := a.Alloc(1024, 64)
	inUse := a.InUse()
	a.Free(b1)
	if a.InUse() != inUse-1024 {
		t.Fatalf("InUse after free = %d", a.InUse())
	}
	b2, _ := a.Alloc(512, 64)
	if b2 > b1+4096 {
		t.Fatalf("tail free did not reclaim space: %d then %d", b1, b2)
	}
}

// Property: LoadBits(StoreBits(x)) == x for all sizes.
func TestArenaRoundTripProperty(t *testing.T) {
	a := NewArena(1 << 16)
	base, _ := a.Alloc(4096, 64)
	f := func(v uint64, off uint16, sizeSel uint8) bool {
		size := []int{1, 2, 4, 8}[sizeSel%4]
		o := base + int64(off%2048)
		masked := v
		if size < 8 {
			masked = v & ((1 << (8 * uint(size))) - 1)
		}
		if err := a.StoreBits(o, size, v); err != nil {
			return false
		}
		got, err := a.LoadBits(o, size)
		return err == nil && got == masked
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// refCache is a naive LRU reference model: each set is a list of lines
// ordered most recently used first.
type refCache struct {
	lineBytes, nsets, ways uint64
	sets                   [][]refLine
	stats                  CacheStats
}

type refLine struct {
	line  uint64
	dirty bool
}

func newRefCache(cfg CacheConfig) *refCache {
	nsets := uint64(cfg.SizeBytes / (cfg.LineBytes * cfg.Ways))
	return &refCache{
		lineBytes: uint64(cfg.LineBytes),
		nsets:     nsets,
		ways:      uint64(cfg.Ways),
		sets:      make([][]refLine, nsets),
	}
}

func (c *refCache) access(addr uint64, size int, write bool) (misses, writebacks int) {
	for ln := addr / c.lineBytes; ln <= (addr+uint64(size)-1)/c.lineBytes; ln++ {
		c.stats.Accesses++
		set := c.sets[ln%c.nsets]
		pos := -1
		for i, l := range set {
			if l.line == ln {
				pos = i
				break
			}
		}
		var cur refLine
		if pos >= 0 {
			c.stats.Hits++
			cur = set[pos]
			set = append(set[:pos], set[pos+1:]...)
		} else {
			c.stats.Misses++
			misses++
			cur = refLine{line: ln}
			if uint64(len(set)) == c.ways {
				if set[len(set)-1].dirty {
					c.stats.Writebacks++
					writebacks++
				}
				set = set[:len(set)-1]
			}
		}
		cur.dirty = cur.dirty || write
		c.sets[ln%c.nsets] = append([]refLine{cur}, set...)
	}
	return misses, writebacks
}

// TestCacheMatchesReferenceLRU pins the modelled board's real L2
// geometries — 96 sets (Mali-T604) and 384 sets (Cortex-A15), neither
// a power of two — plus a power-of-two one against the naive LRU
// model over a seeded random stream: every access's misses and
// writebacks, and the final statistics, must match exactly.
func TestCacheMatchesReferenceLRU(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   CacheConfig
		nsets int
	}{
		{"mali-t604-l2", CacheConfig{SizeBytes: 48 << 10, LineBytes: 64, Ways: 8}, 96},
		{"cortex-a15-l2", CacheConfig{SizeBytes: 192 << 10, LineBytes: 64, Ways: 8}, 384},
		{"cortex-a15-l1", CacheConfig{SizeBytes: 8 << 10, LineBytes: 64, Ways: 2}, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCache(tc.cfg)
			if c.nsets != uint64(tc.nsets) {
				t.Fatalf("sets = %d, want %d", c.nsets, tc.nsets)
			}
			if c.pow2 != (tc.nsets&(tc.nsets-1) == 0) {
				t.Fatalf("pow2 = %v for %d sets", c.pow2, tc.nsets)
			}
			ref := newRefCache(tc.cfg)
			rnd := rand.New(rand.NewSource(7))
			// Addresses span twice the capacity so the stream mixes
			// hits, conflict misses and dirty evictions; sizes up to
			// 64 bytes straddle line boundaries.
			span := int64(2 * tc.cfg.SizeBytes)
			for i := 0; i < 200000; i++ {
				addr := uint64(rnd.Int63n(span))
				size := 1 + rnd.Intn(64)
				write := rnd.Intn(3) == 0
				m, wb := c.Access(addr, size, write)
				rm, rwb := ref.access(addr, size, write)
				if m != rm || wb != rwb {
					t.Fatalf("access %d (addr %d size %d write %v): misses/writebacks %d/%d, reference %d/%d",
						i, addr, size, write, m, wb, rm, rwb)
				}
			}
			if got := c.Stats(); got != ref.stats {
				t.Fatalf("stats %+v, reference %+v", got, ref.stats)
			}
		})
	}
}
