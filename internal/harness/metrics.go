package harness

import (
	"fmt"
	"math"
	"sort"
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

// Percentile returns the q-quantile (0 ≤ q ≤ 1) as the ⌊q·n⌋-th smallest
// of the n samples, clamped to ranks 1..n. This is not nearest rank
// (⌈q·n⌉): when q·n is fractional it reads one rank lower, so the p99 of 5
// samples is the 4th smallest. The committed goldens and the benchmark
// reports are computed with this convention.
func (s Series) Percentile(q float64) int64 {
	if len(s) == 0 {
		return 0
	}
	sorted := make([]int64, len(s))
	copy(sorted, s)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Cell formats a series as "max (mean)", the cell format of the generated
// tables.
func (s Series) Cell() string {
	if len(s) == 0 {
		return "—"
	}
	return fmt.Sprintf("%d (%.1f)", s.Max(), s.Mean())
}

// Repeat runs a (typically free-running, hence noisy) experiment r times
// and reports the mean and sample standard deviation of its scalar metric.
// Deterministic gated experiments do not need it; the E9/E14 style
// workloads quote it when variance matters.
func Repeat(r int, metric func() (float64, error)) (mean, stddev float64, err error) {
	if r < 1 {
		return 0, 0, fmt.Errorf("harness: Repeat needs r ≥ 1, got %d", r)
	}
	vals := make([]float64, r)
	for i := range vals {
		v, err := metric()
		if err != nil {
			return 0, 0, err
		}
		vals[i] = v
		mean += v
	}
	mean /= float64(r)
	if r == 1 {
		return mean, 0, nil
	}
	var ss float64
	for _, v := range vals {
		d := v - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(r-1)), nil
}
