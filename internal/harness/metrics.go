package harness

import (
	"fmt"
	"slices"

	"sublock/internal/hist"
)

// Series is a collection of per-passage RMR samples.
type Series []int64

// Max returns the largest sample, or 0 for an empty series.
func (s Series) Max() int64 {
	var m int64
	for _, v := range s {
		if v > m {
			m = v
		}
	}
	return m
}

// Mean returns the arithmetic mean, or 0 for an empty series.
func (s Series) Mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum int64
	for _, v := range s {
		sum += v
	}
	return float64(sum) / float64(len(s))
}

// Percentile returns the q-quantile (0 ≤ q ≤ 1): the sample of rank
// hist.Rank(q, n), ⌊q·n⌋ clamped to 1..n — the one quantile rule the log2
// histograms behind /metrics and the CLIs read too. The committed goldens
// and the benchmark reports are computed with it.
func (s Series) Percentile(q float64) int64 {
	if len(s) == 0 {
		return 0
	}
	sorted := slices.Clone(s)
	slices.Sort(sorted)
	return sorted[hist.Rank(q, int64(len(sorted)))-1]
}

// Cell formats a series as "max (mean)", the cell format of the generated
// tables.
func (s Series) Cell() string {
	if len(s) == 0 {
		return "—"
	}
	return fmt.Sprintf("%d (%.1f)", s.Max(), s.Mean())
}
