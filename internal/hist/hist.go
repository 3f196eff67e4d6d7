// Package hist is the one log2 histogram and the one quantile rule behind
// every distribution the repo reports: the simulator's per-passage RMR and
// simulated-time histograms (rmr.Stats), the native lock's latency
// histograms (abortable/obs, served on /metrics), and the exact-sample
// percentiles of the experiment tables (harness.Series.Percentile, which
// shares Rank).
//
// Bucket 0 counts zero samples and bucket b ≥ 1 counts samples in
// [2^(b-1), 2^b), except that the last bucket holds every sample from 2^46 up.
// The q-quantile of n samples is the sample of rank ⌊q·n⌋, clamped to
// 1..n; a histogram reports the upper edge of the bucket holding it, an
// upper bound within 2× of the exact sample. The Prometheus exposition
// stops after the last populated bucket and closes with +Inf.
package hist

import (
	"math/bits"
	"strconv"
	"sync/atomic"

	"sublock/internal/promtext"
)

// NumBuckets sizes every histogram: 48 log2 buckets reach 2^46, about
// 19 hours of nanoseconds.
const NumBuckets = 48

// bucket returns the bucket index of sample v ≥ 0.
func bucket(v int64) int {
	return min(bits.Len64(uint64(v)), NumBuckets-1)
}

// Upper returns the upper edge of bucket b, the largest sample it holds
// (for the last bucket, the largest sample below its overflow).
func Upper(b int) int64 { return 1<<b - 1 }

// Rank returns the 1-based rank the q-quantile of n ≥ 1 samples reads:
// ⌊q·n⌋ clamped to 1..n. When q·n is fractional this is one rank below
// nearest rank (⌈q·n⌉), so the p99 of 5 samples is the 4th smallest.
func Rank(q float64, n int64) int64 {
	return max(1, min(int64(q*float64(n)), n))
}

// Hist is a lock-free log2 histogram of non-negative int64 samples. The
// zero value is ready to use; Observe is wait-free (two atomic adds) and
// allocation-free, so recording can sit on lock slow paths.
type Hist struct {
	counts [NumBuckets]atomic.Int64
	sum    atomic.Int64
}

// Observe records one sample. Negative samples clamp to zero.
func (h *Hist) Observe(v int64) {
	v = max(v, 0)
	h.counts[bucket(v)].Add(1)
	h.sum.Add(v)
}

// Snapshot copies the current state. Counters are individually atomic;
// a snapshot taken mid-Observe may see the bucket without the sum.
func (h *Hist) Snapshot() Snapshot {
	s := Snapshot{Counts: make([]int64, NumBuckets), Sum: h.sum.Load()}
	for b := range h.counts {
		s.Counts[b] = h.counts[b].Load()
	}
	return s
}

// Snapshot is a point-in-time copy of a Hist: Counts[b] holds the samples
// of bucket b, Sum their total.
type Snapshot struct {
	Counts []int64 `json:"counts"`
	Sum    int64   `json:"sum"`
}

// Count returns the total number of samples.
func (s Snapshot) Count() int64 {
	var n int64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Mean returns the mean sample, or 0 with no samples.
func (s Snapshot) Mean() float64 {
	n := s.Count()
	if n == 0 {
		return 0
	}
	return float64(s.Sum) / float64(n)
}

// Quantile returns the upper edge of the bucket holding the sample of
// rank Rank(q, n), or 0 with no samples.
func (s Snapshot) Quantile(q float64) int64 {
	n := s.Count()
	if n <= 0 {
		return 0
	}
	rank := Rank(q, n)
	var cum int64
	for b, c := range s.Counts {
		if cum += c; cum >= rank {
			return Upper(b)
		}
	}
	panic("hist: rank beyond count")
}

// Buckets returns the cumulative exposition buckets: one per bucket up
// to the last populated one below the overflow bucket (at least bucket
// 0), labelled with its upper edge, then +Inf holding the count.
func (s Snapshot) Buckets() []promtext.Bucket {
	last := 0
	for b := 1; b < len(s.Counts)-1; b++ {
		if s.Counts[b] != 0 {
			last = b
		}
	}
	out := make([]promtext.Bucket, 0, last+2)
	var cum int64
	for b, c := range s.Counts[:last+1] {
		cum += c
		out = append(out, promtext.Bucket{LE: strconv.FormatInt(Upper(b), 10), Cum: cum})
	}
	return append(out, promtext.Bucket{LE: "+Inf", Cum: s.Count()})
}
