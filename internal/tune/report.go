package tune

import (
	"encoding/json"
	"fmt"
	"strings"
)

// label renders a candidate's placement as the report's fixed-width
// key, e.g. "exynos5422/gpu@480MHz local=64 passes=all".
func (c Candidate) label() string {
	s := fmt.Sprintf("%s/%s@%s", c.Device, c.Target, c.Point)
	if c.Target == TargetGPU {
		local := "auto"
		if c.LocalSize > 0 {
			local = fmt.Sprintf("%d", c.LocalSize)
		}
		passes := c.Passes
		if passes == "" {
			passes = "none"
		}
		s += fmt.Sprintf(" local=%s passes=%s", local, passes)
	}
	return s
}

// Render formats the report as a deterministic text table: the search
// header, every candidate ranked by energy (unsupported candidates
// last), and the two optima. Byte-identical across runs and host
// worker counts.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Autotune %s (%s, scale %g)\n", r.Bench, r.Precision, r.Scale)
	fmt.Fprintf(&b, "%d candidates\n\n", len(r.Outcomes))
	fmt.Fprintf(&b, "%-52s %12s %12s %10s %10s\n",
		"placement", "time ms", "energy J", "power W", "DRAM MB")
	for _, i := range sortedOutcomes(r.Outcomes) {
		o := r.Outcomes[i]
		if !o.Supported {
			fmt.Fprintf(&b, "%-52s %12s  n/a — %s\n", o.label(), "-", o.Reason)
			continue
		}
		mark := " "
		switch {
		case i == r.BestEnergy && i == r.BestTime:
			mark = "*" // both optima
		case i == r.BestEnergy:
			mark = "E"
		case i == r.BestTime:
			mark = "T"
		}
		fmt.Fprintf(&b, "%-52s %12.4f %12.6f %10.4f %10.2f %s\n",
			o.label(), o.Seconds*1000, o.EnergyJ, o.MeanPowerW,
			float64(o.DRAMBytes)/1e6, mark)
	}
	b.WriteString("\n")
	if e := r.EnergyOptimal(); e != nil {
		fmt.Fprintf(&b, "energy-optimal  %s  (%.6f J, %.4f ms)\n",
			e.label(), e.EnergyJ, e.Seconds*1000)
	} else {
		b.WriteString("energy-optimal  (no supported candidate)\n")
	}
	if t := r.TimeOptimal(); t != nil {
		fmt.Fprintf(&b, "time-optimal    %s  (%.4f ms, %.6f J)\n",
			t.label(), t.Seconds*1000, t.EnergyJ)
	} else {
		b.WriteString("time-optimal    (no supported candidate)\n")
	}
	return b.String()
}

// JSON renders the report as indented JSON (the malitune -json mode).
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
