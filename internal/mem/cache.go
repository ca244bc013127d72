// Package mem provides the simulated memory system shared by the
// device models: a flat global arena with buffer allocation, a
// set-associative write-back cache model, and a DRAM channel model for
// the board's DDR3L-1600 memory.
package mem

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
// The line/set arithmetic sits on the simulator's per-access hot path,
// so the geometry divisions are strength-reduced to shifts and masks
// when line size and set count are both powers of two. Set counts
// need not be: the modelled board's L2s are not (the Mali-T604 L2,
// 48 KiB 8-way with 64 B lines, has 96 sets; the Cortex-A15 L2 has
// 384), so they take the division path. lines is one flat ways-major
// array to spare a level of slice indirection.
type Cache struct {
	cfg       CacheConfig
	lines     []line
	ways      int
	nsets     uint64
	pow2      bool
	lineShift uint
	setMask   uint64
	setShift  uint
	tick      uint64
	stats     CacheStats
}

// NewCache builds a cache from cfg. Any set count works; see Cache for
// which geometries take the shift path.
func NewCache(cfg CacheConfig) *Cache {
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	if nsets < 1 {
		nsets = 1
	}
	c := &Cache{
		cfg:   cfg,
		lines: make([]line, nsets*cfg.Ways),
		ways:  cfg.Ways,
		nsets: uint64(nsets),
	}
	lb := uint64(cfg.LineBytes)
	if lb > 0 && lb&(lb-1) == 0 && c.nsets&(c.nsets-1) == 0 {
		c.pow2 = true
		c.lineShift = uint(trailingZeros(lb))
		c.setMask = c.nsets - 1
		c.setShift = uint(trailingZeros(c.nsets))
	}
	return c
}

// trailingZeros returns the number of trailing zero bits of v (v > 0).
func trailingZeros(v uint64) int {
	n := 0
	for v&1 == 0 {
		v >>= 1
		n++
	}
	return n
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
	c.tick = 0
}

// Access touches the byte range [addr, addr+size). It returns the
// number of line misses the access caused (each implying a fill from
// the next level) and the number of dirty writebacks.
func (c *Cache) Access(addr uint64, size int, write bool) (misses, writebacks int) {
	if size <= 0 {
		size = 1
	}
	var first, last uint64
	if c.pow2 {
		first = addr >> c.lineShift
		last = (addr + uint64(size) - 1) >> c.lineShift
	} else {
		lb := uint64(c.cfg.LineBytes)
		first = addr / lb
		last = (addr + uint64(size) - 1) / lb
	}
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
			si = ln % c.nsets
			tag = ln / c.nsets
		}
		base := int(si) * c.ways
		set := c.lines[base : base+c.ways]
		want := tag | lineValid
		hit := false
		for i := range set {
			if set[i].tv&^lineDirty == want {
				set[i].lru = c.tick
				if write {
					set[i].tv |= lineDirty
				}
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
		set[victim] = line{tv: tv, lru: c.tick}
	}
	return misses, writebacks
}
