package obs

import "sublock/internal/hist"

// Hist is the wait-free power-of-two latency histogram every Metrics
// records into (samples in nanoseconds): the repo's one log2 histogram,
// shared with the simulator's passage histograms (rmr.Stats), so native
// latency and model RMR distributions bucket and read the same way.
type Hist = hist.Hist

// HistSnapshot is a point-in-time copy of a Hist: Counts[0] holds zero
// samples, Counts[b] samples in [2^(b-1), 2^b); Quantile reads rank
// ⌊q·n⌋ and reports its bucket's upper edge.
type HistSnapshot = hist.Snapshot
