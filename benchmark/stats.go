package main

import (
	"sort"

	"sublock/internal/harness"
)

// sampleCap bounds the samples one sampler keeps (2 MiB), so memory and
// the percentile sort stay bounded however long a round runs: a
// native-mix worker completes about half a million passages in a 6 s
// round.
const sampleCap = 1 << 18

// sampler keeps a uniform subsample of a stream of durations in bounded
// memory: it records every stride-th value, and when its buffer fills it
// drops every other kept value and doubles the stride. The kept samples
// therefore cover the whole window evenly, not just its start. A sampler
// belongs to one goroutine.
type sampler struct {
	buf    harness.Series
	stride int64
	skip   int64
	n      int64 // values offered, including those not kept
}

func newSampler(capacity int) *sampler {
	return &sampler{buf: make(harness.Series, 0, capacity), stride: 1}
}

func (s *sampler) add(ns int64) {
	s.n++
	if s.skip > 0 {
		s.skip--
		return
	}
	if len(s.buf) == cap(s.buf) {
		half := s.buf[:0]
		for i := 0; i < len(s.buf); i += 2 {
			half = append(half, s.buf[i])
		}
		s.buf = half
		s.stride *= 2
	}
	s.buf = append(s.buf, ns)
	s.skip = s.stride - 1
}

// merge pools samplers' kept values. Samplers that decimated to different
// strides are pooled as they are; the bias this adds is at most the
// ratio of the workers' throughputs, which the closed loop keeps near 1.
func merge(ss ...*sampler) (harness.Series, int64) {
	var out harness.Series
	var n int64
	for _, s := range ss {
		out = append(out, s.buf...)
		n += s.n
	}
	return out, n
}

// usOf converts a nanosecond percentile to microseconds.
func usOf(ns int64) float64 { return float64(ns) / 1e3 }

// quartiles returns the first quartile, median and third quartile of xs by
// the method of Python's statistics.quantiles(xs, n=4) (its default
// "exclusive" method), so the spreads the report prints match that
// function on the same values. harness.Series.Percentile
// is nearest-rank with a floor, which for five rounds returns the second
// value rather than the median, so it serves only the large latency sets.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}
