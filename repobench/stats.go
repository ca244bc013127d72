package main

import (
	"math"
	"sort"
	"time"
)

// tailPermille lists the tail percentiles a workload may report, in
// tenths of a percent, highest first.
var tailPermille = []int{999, 990, 950, 900, 750, 500}

// tailPercentile returns the highest percentile in tailPermille that
// leaves at least ten of n samples beyond it, or 0 when none does.
// Integer arithmetic keeps the boundary exact: 1000 samples allow p99
// (ten beyond), 999 do not.
func tailPercentile(n int) float64 {
	for _, pm := range tailPermille {
		if n*(1000-pm) >= 10*1000 {
			return float64(pm) / 10
		}
	}
	return 0
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of sorted
// values: the smallest value with at least q·n values at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// dist is a sample distribution: median and quartiles plus the count,
// the form every metric of the report takes.
type dist struct {
	N   int     `json:"n"`
	P25 float64 `json:"p25"`
	P50 float64 `json:"p50"`
	P75 float64 `json:"p75"`
}

func distOf(values []float64) dist {
	s := sortedCopy(values)
	return dist{N: len(s), P25: finite(quantile(s, 0.25)), P50: finite(quantile(s, 0.5)), P75: finite(quantile(s, 0.75))}
}

// finite maps a value JSON cannot carry (a latency quantile that lands
// on a failed request, the median of no samples) to -1.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return -1
	}
	return v
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

func median(values []float64) float64 { return quantile(sortedCopy(values), 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
