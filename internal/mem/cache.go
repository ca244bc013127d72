// Package mem provides the simulated memory system shared by the
// device models: a flat global arena with buffer allocation, a
// set-associative write-back cache model, and a DRAM channel model for
// the board's DDR3L-1600 memory.
package mem

import (
	"fmt"
	"math/bits"
)

// CacheConfig describes one cache level.
type CacheConfig struct {
	SizeBytes int
	LineBytes int
	Ways      int
}

// CacheStats accumulates cache behaviour.
type CacheStats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Writebacks uint64
}

// MissRate returns the fraction of accesses that missed.
func (s CacheStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// line is one cache line: the tag packed with the valid and dirty
// flags in tv (so a probe is a single masked compare and a line is 16
// bytes), plus the LRU tick.
type line struct {
	tv  uint64
	lru uint64
}

const (
	lineValid = uint64(1) << 63
	lineDirty = uint64(1) << 62
)

// Cache is a set-associative write-back, write-allocate cache with LRU
// replacement. It models hit/miss behaviour only; data lives in the
// backing arena.
//
// The line/set arithmetic sits on the simulator's per-access hot path.
// Line sizes are powers of two, so the line number is a shift; the set
// index is a mask and shift when the set count is a power of two too.
// Set counts need not be: the modelled board's L2s are not (the
// Mali-T604 L2, 48 KiB 8-way with 64 B lines, has 96 sets; the
// Cortex-A15 L2 has 384), so they take one division per line. lines is
// one flat ways-major array to spare a level of slice indirection.
//
// Way 0 of each set holds the set's most recently used line: a hit or
// a fill swaps its line there, so a hit on that line, the common case,
// stops the probe at the first way. The order of the other ways
// carries no meaning: the victim is an invalid way or else the valid
// line with the least lru, and no two lines share an lru tick.
type Cache struct {
	cfg       CacheConfig
	lines     []line
	ways      int
	nsets     uint64
	pow2      bool // the set count is a power of two
	lineShift uint
	setMask   uint64
	setShift  uint
	tick      uint64
	last      int // index in lines of the line the last Access touched (way 0 of its set)
	stats     CacheStats
}

// NewCache builds a cache from cfg. Any set count works; see Cache for
// which geometries take the shift path. The line size must be a power
// of two and Ways positive (platform.SoC.Validate checks both).
func NewCache(cfg CacheConfig) *Cache {
	lb := uint64(cfg.LineBytes)
	if lb == 0 || lb&(lb-1) != 0 || cfg.Ways < 1 {
		panic(fmt.Sprintf("mem.NewCache: unsupported geometry %+v", cfg))
	}
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	if nsets < 1 {
		nsets = 1
	}
	c := &Cache{
		cfg:       cfg,
		lines:     make([]line, nsets*cfg.Ways),
		ways:      cfg.Ways,
		nsets:     uint64(nsets),
		lineShift: uint(bits.TrailingZeros64(lb)),
	}
	if c.nsets&(c.nsets-1) == 0 {
		c.pow2 = true
		c.setMask = c.nsets - 1
		c.setShift = uint(bits.TrailingZeros64(c.nsets))
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Stats returns the accumulated statistics.
func (c *Cache) Stats() CacheStats { return c.stats }

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
	c.stats = CacheStats{}
	c.tick, c.last = 0, 0
}

// Access touches the byte range [addr, addr+size). It returns the
// number of line misses the access caused (each implying a fill from
// the next level) and the number of dirty writebacks.
func (c *Cache) Access(addr uint64, size int, write bool) (misses, writebacks int) {
	if size <= 0 {
		size = 1
	}
	first := addr >> c.lineShift
	last := (addr + uint64(size) - 1) >> c.lineShift
	// Probe and fill are fused into one pass so the set/tag arithmetic
	// and the ways subslice are computed once per line touched.
	for ln := first; ln <= last; ln++ {
		c.tick++
		c.stats.Accesses++
		var si, tag uint64
		if c.pow2 {
			si = ln & c.setMask
			tag = ln >> c.setShift
		} else {
			tag = ln / c.nsets
			si = ln - tag*c.nsets
		}
		base := int(si) * c.ways
		set := c.lines[base : base+c.ways]
		c.last = base
		want := tag | lineValid
		hit := false
		for i := range set {
			if set[i].tv&^lineDirty == want {
				l := set[i]
				l.lru = c.tick
				if write {
					l.tv |= lineDirty
				}
				set[i], set[0] = set[0], l
				hit = true
				break
			}
		}
		if hit {
			c.stats.Hits++
			continue
		}
		c.stats.Misses++
		misses++
		victim := 0
		for i := range set {
			if set[i].tv&lineValid == 0 {
				victim = i
				break
			}
			if set[i].lru < set[victim].lru {
				victim = i
			}
		}
		if set[victim].tv&(lineValid|lineDirty) == lineValid|lineDirty {
			c.stats.Writebacks++
			writebacks++
		}
		tv := want
		if write {
			tv |= lineDirty
		}
		set[victim], set[0] = set[0], line{tv: tv, lru: c.tick}
	}
	return misses, writebacks
}

// Repeat counts n more accesses to the line the last Access touched,
// with the state and statistics of n separate Access calls: the line
// is its set's most recently used, so each repeat hits, moves no other
// line and at most sets the dirty bit. It serves a folded trace record
// (vm.RepeatObserver), whose repeats lie in that line by construction.
func (c *Cache) Repeat(n int, write bool) {
	c.tick += uint64(n)
	c.stats.Accesses += uint64(n)
	c.stats.Hits += uint64(n)
	l := &c.lines[c.last]
	l.lru = c.tick
	if write {
		l.tv |= lineDirty
	}
}
