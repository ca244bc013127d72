package platform

import (
	"strings"
	"testing"
)

// TestValidateCacheGeometry checks Validate rejects each cache geometry
// the cache model cannot run or the trace fold cannot serve, at every
// cache level, and that every registered SoC still validates.
func TestValidateCacheGeometry(t *testing.T) {
	for _, s := range All() {
		if err := s.Validate(); err != nil {
			t.Errorf("registered soc %s: %v", s.Name, err)
		}
	}

	// with returns a copy of the default SoC with mut applied to its
	// (copied) CPU and GPU models.
	with := func(mut func(c *CPUModel, g *GPUModel)) *SoC {
		s := *Default()
		c, g := *s.CPU, *s.GPU
		s.CPU, s.GPU = &c, &g
		mut(&c, &g)
		return &s
	}
	for _, tc := range []struct {
		name string
		mut  func(c *CPUModel, g *GPUModel)
		want string // substring of the error; "" means valid
	}{
		{"default", func(c *CPUModel, g *GPUModel) {}, ""},
		{"non-pow2-sets", func(c *CPUModel, g *GPUModel) { g.L2Size = 96 * 64 * 8 }, ""},
		{"line-128", func(c *CPUModel, g *GPUModel) { c.L2Line, c.L2Size = 128, 128<<10 }, ""},
		{"cpu-l1-zero-line", func(c *CPUModel, g *GPUModel) { c.L1Line = 0 }, "L1 line size 0"},
		{"cpu-l1-line-32", func(c *CPUModel, g *GPUModel) { c.L1Line = 32 }, "L1 line size 32"},
		{"cpu-l2-line-96", func(c *CPUModel, g *GPUModel) { c.L2Line = 96 }, "L2 line size 96"},
		{"gpu-l2-negative-line", func(c *CPUModel, g *GPUModel) { g.L2Line = -64 }, "L2 line size -64"},
		{"cpu-l1-zero-ways", func(c *CPUModel, g *GPUModel) { c.L1Ways = 0 }, "L1 has 0 ways"},
		{"gpu-l2-zero-ways", func(c *CPUModel, g *GPUModel) { g.L2Ways = 0 }, "L2 has 0 ways"},
		{"cpu-l2-zero-size", func(c *CPUModel, g *GPUModel) { c.L2Size = 0 }, "L2 size 0"},
		{"gpu-l2-below-one-set", func(c *CPUModel, g *GPUModel) { g.L2Size = 64 * 4 }, "L2 size 256"},
		{"cpu-l1-partial-set", func(c *CPUModel, g *GPUModel) { c.L1Size += 64 }, "not a positive multiple"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := with(tc.mut).Validate()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("accepted, want an error containing %q", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("error %q, want it to contain %q", err, tc.want)
			}
		})
	}
}
