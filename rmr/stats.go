package rmr

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync/atomic"

	"sublock/internal/promtext"
)

// numPassageBuckets sizes the passage-cost histogram: bucket 0 counts
// zero-RMR passages and bucket b ≥ 1 counts passages whose RMR cost lies
// in [2^(b-1), 2^b); the last bucket absorbs everything beyond.
const numPassageBuckets = 16

// numSimBuckets sizes the passage simulated-latency histogram the same way
// but in simulated nanoseconds, whose range is far wider than RMR counts
// (a DSM-remote passage easily costs 10^5 ns): 48 log2 buckets cover
// anything a realistic model can produce.
const numSimBuckets = 48

// Stats accumulates the observability counter matrix of one Memory:
// operation counts, RMR charges, cache hits, and invalidations, each
// broken down by process × passage phase × address label, plus a
// per-passage RMR-cost histogram driven by Proc.EnterPhase transitions.
//
// Build with NewStats and install with Memory.SetStats; while installed,
// every operation also records into it, so collection costs throughput
// but perturbs no RMR counts and no schedule. The label
// dimension is frozen at construction: words labeled after NewStats are
// attributed to the unlabeled column (pre-intern such labels with
// Memory.Label(0, 0, name) before constructing the Stats).
//
// All counters are atomic: Snapshot may be taken at any time and is
// internally consistent per counter, though a snapshot taken mid-run may
// split an operation's facets across two snapshots.
type Stats struct {
	m       *Memory
	nprocs  int
	nlabels int
	cells   []statsCell // [proc][phase][label], row-major

	completed atomic.Int64 // passages that returned to idle without aborting
	aborted   atomic.Int64 // passages that visited PhaseAbort
	histSum   atomic.Int64 // total RMRs across finished passages
	hist      [numPassageBuckets]atomic.Int64
	simSum    atomic.Int64 // total simulated time across finished passages
	simHist   [numSimBuckets]atomic.Int64

	// inPassage tracks each process's open passage. Only the process
	// itself touches its entry (from EnterPhase), and Snapshot does not
	// read it, so the fields need no atomics.
	inPassage []passageState
}

type statsCell struct {
	ops    [5]atomic.Int64 // indexed by Op-1: read, write, cas, faa, swap
	rmrs   atomic.Int64
	hits   atomic.Int64
	invals atomic.Int64
	simns  atomic.Int64 // simulated time under the memory's cost model
}

type passageState struct {
	active   bool
	aborted  bool
	start    int64 // Proc.RMRs at passage start
	startSim int64 // Proc.SimTime at passage start
}

// NewStats creates a collector for m, sized to its process count and the
// labels interned so far.
func NewStats(m *Memory) *Stats {
	labels := m.Labels()
	return &Stats{
		m:         m,
		nprocs:    m.nprocs,
		nlabels:   len(labels),
		cells:     make([]statsCell, m.nprocs*NumPhases*len(labels)),
		inPassage: make([]passageState, m.nprocs),
	}
}

// record accounts one observed operation. Called from inside the
// operation.
func (st *Stats) record(pid int, ph Phase, label int32, op Op, rmr bool, cost int64, hit bool, invals int) {
	if label < 0 || int(label) >= st.nlabels {
		label = 0
	}
	if ph < 0 || ph >= NumPhases {
		ph = PhaseIdle
	}
	c := &st.cells[(pid*NumPhases+int(ph))*st.nlabels+int(label)]
	if op >= OpRead && op <= OpSwap {
		c.ops[op-1].Add(1)
	}
	if rmr {
		c.rmrs.Add(1)
	}
	if cost > 0 {
		c.simns.Add(cost)
	}
	if hit {
		c.hits.Add(1)
	}
	if invals > 0 {
		c.invals.Add(int64(invals))
	}
}

// phaseChange maintains passage accounting: a passage opens on the first
// transition out of PhaseIdle, is marked aborted if it visits PhaseAbort,
// and closes — contributing its RMR delta to the cost histogram — on the
// transition back to PhaseIdle.
func (st *Stats) phaseChange(p *Proc, old, new Phase) {
	ps := &st.inPassage[p.id]
	switch {
	case !ps.active && old == PhaseIdle && new != PhaseIdle:
		ps.active, ps.aborted = true, false
		ps.start, ps.startSim = p.rmrs, p.SimTime()
	case new == PhaseAbort:
		ps.aborted = true
	case new == PhaseIdle && ps.active:
		cost := p.rmrs - ps.start
		b := bits.Len64(uint64(cost))
		if b >= numPassageBuckets {
			b = numPassageBuckets - 1
		}
		st.hist[b].Add(1)
		st.histSum.Add(cost)
		sim := p.SimTime() - ps.startSim
		sb := bits.Len64(uint64(sim))
		if sb >= numSimBuckets {
			sb = numSimBuckets - 1
		}
		st.simHist[sb].Add(1)
		st.simSum.Add(sim)
		if ps.aborted {
			st.aborted.Add(1)
		} else {
			st.completed.Add(1)
		}
		ps.active = false
	}
}

// Cell is one entry of a Snapshot's counter matrix.
type Cell struct {
	Ops    [5]int64 // operation counts indexed by Op-1: read, write, cas, faa, swap
	RMRs   int64    // operations charged as remote
	Hits   int64    // CC: reads/updates finding a valid cached copy; DSM: local-word accesses
	Invals int64    // CC only: cached copies invalidated by updates
	SimNS  int64    // simulated time under the cost model (ticks under Unit)
}

func (c *Cell) add(o *Cell) {
	for i := range c.Ops {
		c.Ops[i] += o.Ops[i]
	}
	c.RMRs += o.RMRs
	c.Hits += o.Hits
	c.Invals += o.Invals
	c.SimNS += o.SimNS
}

func (c *Cell) zero() bool {
	var z Cell
	return *c == z
}

// Snapshot is a point-in-time copy of a Stats collector, safe to read and
// aggregate without synchronization.
type Snapshot struct {
	Model  Model
	Procs  int
	Labels []string // label id → name; Labels[0] = "" (unlabeled)
	// Cost names the memory's cost model at snapshot time ("unit" unless a
	// model was installed with Memory.SetCostModel); simulated-time fields
	// below are in its units (ns for the built-in non-unit models).
	Cost string

	// Passage accounting (driven by Proc.EnterPhase).
	Passages        int64 // finished passages that did not abort
	AbortedPassages int64
	PassageRMRSum   int64   // total RMRs across finished passages
	PassageHist     []int64 // bucket 0: zero-cost; bucket b: cost in [2^(b-1), 2^b)
	PassageSimSum   int64   // total simulated time across finished passages
	PassageSimHist  []int64 // same bucketing as PassageHist, in sim time

	cells []Cell
}

// Snapshot copies the current counters.
func (st *Stats) Snapshot() *Snapshot {
	s := &Snapshot{
		Model:           st.m.model,
		Procs:           st.nprocs,
		Labels:          st.m.Labels()[:st.nlabels],
		Cost:            st.m.CostModel().Name(),
		Passages:        st.completed.Load(),
		AbortedPassages: st.aborted.Load(),
		PassageRMRSum:   st.histSum.Load(),
		PassageHist:     make([]int64, numPassageBuckets),
		PassageSimSum:   st.simSum.Load(),
		PassageSimHist:  make([]int64, numSimBuckets),
		cells:           make([]Cell, len(st.cells)),
	}
	for i := range st.hist {
		s.PassageHist[i] = st.hist[i].Load()
	}
	for i := range st.simHist {
		s.PassageSimHist[i] = st.simHist[i].Load()
	}
	for i := range st.cells {
		c := &st.cells[i]
		d := &s.cells[i]
		for k := range c.ops {
			d.Ops[k] = c.ops[k].Load()
		}
		d.RMRs = c.rmrs.Load()
		d.Hits = c.hits.Load()
		d.Invals = c.invals.Load()
		d.SimNS = c.simns.Load()
	}
	return s
}

// Cell returns the counters for one (process, phase, label) coordinate.
func (s *Snapshot) Cell(proc int, ph Phase, label int32) Cell {
	return s.cells[(proc*NumPhases+int(ph))*len(s.Labels)+int(label)]
}

// ProcPhaseRMRs sums the RMRs process proc incurred in phase ph.
func (s *Snapshot) ProcPhaseRMRs(proc int, ph Phase) int64 {
	var n int64
	for l := range s.Labels {
		n += s.Cell(proc, ph, int32(l)).RMRs
	}
	return n
}

// PhaseRMRs sums the RMRs all processes incurred in phase ph.
func (s *Snapshot) PhaseRMRs(ph Phase) int64 {
	var n int64
	for p := 0; p < s.Procs; p++ {
		n += s.ProcPhaseRMRs(p, ph)
	}
	return n
}

// LabelRMRs sums the RMRs charged to words labeled name across all
// processes and phases; name "" selects the unlabeled region.
func (s *Snapshot) LabelRMRs(name string) int64 {
	var n int64
	for l, ln := range s.Labels {
		if ln != name {
			continue
		}
		for p := 0; p < s.Procs; p++ {
			for ph := Phase(0); ph < NumPhases; ph++ {
				n += s.Cell(p, ph, int32(l)).RMRs
			}
		}
	}
	return n
}

// ProcPhaseLabelRMRs sums the RMRs process proc incurred in phase ph on
// words whose label name has the given prefix (e.g. "tree/" for all tree
// levels).
func (s *Snapshot) ProcPhaseLabelRMRs(proc int, ph Phase, prefix string) int64 {
	var n int64
	for l, ln := range s.Labels {
		if strings.HasPrefix(ln, prefix) {
			n += s.Cell(proc, ph, int32(l)).RMRs
		}
	}
	return n
}

// ProcPhaseSimNS sums the simulated time process proc accrued in phase ph.
func (s *Snapshot) ProcPhaseSimNS(proc int, ph Phase) int64 {
	var n int64
	for l := range s.Labels {
		n += s.Cell(proc, ph, int32(l)).SimNS
	}
	return n
}

// PhaseSimNS sums the simulated time all processes accrued in phase ph.
func (s *Snapshot) PhaseSimNS(ph Phase) int64 {
	var n int64
	for p := 0; p < s.Procs; p++ {
		n += s.ProcPhaseSimNS(p, ph)
	}
	return n
}

// LabelSimNS sums the simulated time charged to words labeled name across
// all processes and phases; name "" selects the unlabeled region.
func (s *Snapshot) LabelSimNS(name string) int64 {
	var n int64
	for l, ln := range s.Labels {
		if ln != name {
			continue
		}
		for p := 0; p < s.Procs; p++ {
			for ph := Phase(0); ph < NumPhases; ph++ {
				n += s.Cell(p, ph, int32(l)).SimNS
			}
		}
	}
	return n
}

// PassageSimQuantile estimates the q-quantile (0 < q ≤ 1) of per-passage
// simulated latency from the log2 histogram, returning the upper bound of
// the bucket holding the nearest-rank passage (so the estimate is exact for
// zero-cost passages and within 2× otherwise; harnesses that need exact
// percentiles snapshot Proc.SimTime per passage instead).
func (s *Snapshot) PassageSimQuantile(q float64) int64 {
	var total int64
	for _, n := range s.PassageSimHist {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for b, n := range s.PassageSimHist {
		cum += n
		if cum >= rank {
			if b == 0 {
				return 0
			}
			return 1<<b - 1
		}
	}
	return 1<<len(s.PassageSimHist) - 1
}

// Total aggregates every cell.
func (s *Snapshot) Total() Cell {
	var t Cell
	for i := range s.cells {
		t.add(&s.cells[i])
	}
	return t
}

// TotalRMRs sums RMRs over every cell.
func (s *Snapshot) TotalRMRs() int64 { return s.Total().RMRs }

// TotalSimNS sums simulated time over every cell.
func (s *Snapshot) TotalSimNS() int64 { return s.Total().SimNS }

var opNames = [5]string{"read", "write", "cas", "faa", "swap"}

func labelDisplay(name string) string {
	if name == "" {
		return "(unlabeled)"
	}
	return name
}

// WriteText writes a human-readable report: passage accounting, the
// per-phase and per-label RMR breakdowns, the per-process phase matrix,
// and the aggregate op mix and cache behavior. Output is deterministic.
func (s *Snapshot) WriteText(w io.Writer) error {
	tw := &errWriter{w: w}
	t := s.Total()
	tw.printf("rmr stats: model=%v procs=%d labels=%d cost=%s\n", s.Model, s.Procs, len(s.Labels), s.Cost)
	tw.printf("ops: read=%d write=%d cas=%d faa=%d swap=%d  rmrs=%d hits=%d invalidations=%d\n",
		t.Ops[0], t.Ops[1], t.Ops[2], t.Ops[3], t.Ops[4], t.RMRs, t.Hits, t.Invals)
	tw.printf("passages: completed=%d aborted=%d rmr-sum=%d\n", s.Passages, s.AbortedPassages, s.PassageRMRSum)
	if s.Passages+s.AbortedPassages > 0 {
		tw.printf("simulated passage latency (cost=%s): sum=%d p50≤%d p95≤%d p99≤%d\n",
			s.Cost, s.PassageSimSum,
			s.PassageSimQuantile(0.50), s.PassageSimQuantile(0.95), s.PassageSimQuantile(0.99))
	}
	if s.Passages+s.AbortedPassages > 0 {
		tw.printf("passage cost histogram (rmrs):")
		for b, n := range s.PassageHist {
			if n == 0 {
				continue
			}
			lo, hi := int64(0), int64(0)
			if b > 0 {
				lo, hi = 1<<(b-1), 1<<b-1
			}
			if b == numPassageBuckets-1 {
				tw.printf(" [%d,∞)=%d", lo, n)
			} else if lo == hi {
				tw.printf(" %d=%d", lo, n)
			} else {
				tw.printf(" [%d,%d]=%d", lo, hi, n)
			}
		}
		tw.printf("\n")
	}
	tw.printf("per-phase RMRs (all processes):")
	for ph := Phase(0); ph < NumPhases; ph++ {
		tw.printf(" %v=%d", ph, s.PhaseRMRs(ph))
	}
	tw.printf("\n")
	tw.printf("per-phase simulated time (cost=%s):", s.Cost)
	for ph := Phase(0); ph < NumPhases; ph++ {
		tw.printf(" %v=%d", ph, s.PhaseSimNS(ph))
	}
	tw.printf("\n")
	tw.printf("per-label RMRs (all processes):\n")
	for l, name := range s.Labels {
		n := s.LabelRMRs(name)
		if n == 0 && l > 0 {
			continue
		}
		tw.printf("  %-24s %d\n", labelDisplay(name), n)
	}
	tw.printf("per-process per-phase RMRs:\n")
	tw.printf("  %-5s", "proc")
	for ph := Phase(0); ph < NumPhases; ph++ {
		tw.printf(" %8v", ph)
	}
	tw.printf(" %8s\n", "total")
	for p := 0; p < s.Procs; p++ {
		var total int64
		row := make([]int64, NumPhases)
		for ph := Phase(0); ph < NumPhases; ph++ {
			row[ph] = s.ProcPhaseRMRs(p, ph)
			total += row[ph]
		}
		if total == 0 {
			continue
		}
		tw.printf("  p%-4d", p)
		for _, n := range row {
			tw.printf(" %8d", n)
		}
		tw.printf(" %8d\n", total)
	}
	return tw.err
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format (version 0.0.4, via the shared internal/promtext writer also used
// by the native abortable/obs endpoint): rmr_ops_total, rmr_remote_total,
// rmr_cache_hits_total, rmr_invalidations_total (each by proc, phase,
// label, and — for ops — kind), rmr_sim_time_ns_total (by proc, phase,
// label, and cost model), rmr_passages_total by result, and the
// rmr_passage_cost_rmrs and rmr_passage_sim_ns histograms. All-zero series
// are omitted and series order is deterministic.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	pw := promtext.NewWriter(w)
	cellLabels := func(p int, ph Phase, l int32) []promtext.Label {
		return []promtext.Label{
			{Name: "proc", Value: fmt.Sprintf("%d", p)},
			{Name: "phase", Value: ph.String()},
			{Name: "label", Value: labelDisplay(s.Labels[l])},
		}
	}
	pw.Metric("rmr_ops_total", "Shared-memory operations by process, phase, label, and kind.", "counter")
	s.eachCell(func(p int, ph Phase, l int32, c Cell) {
		for k, n := range c.Ops {
			if n != 0 {
				pw.Sample("rmr_ops_total",
					append(cellLabels(p, ph, l), promtext.Label{Name: "op", Value: opNames[k]}), n)
			}
		}
	})
	for _, mf := range []struct {
		name, help string
		get        func(Cell) int64
	}{
		{"rmr_remote_total", "Operations charged as remote memory references.", func(c Cell) int64 { return c.RMRs }},
		{"rmr_cache_hits_total", "Accesses satisfied locally (CC: valid cached copy; DSM: local word).", func(c Cell) int64 { return c.Hits }},
		{"rmr_invalidations_total", "Cached copies invalidated by updates (CC only).", func(c Cell) int64 { return c.Invals }},
	} {
		pw.Metric(mf.name, mf.help, "counter")
		s.eachCell(func(p int, ph Phase, l int32, c Cell) {
			if n := mf.get(c); n != 0 {
				pw.Sample(mf.name, cellLabels(p, ph, l), n)
			}
		})
	}
	pw.Metric("rmr_sim_time_ns_total", "Simulated time accrued under the cost model (ticks under unit).", "counter")
	s.eachCell(func(p int, ph Phase, l int32, c Cell) {
		if c.SimNS != 0 {
			pw.Sample("rmr_sim_time_ns_total",
				append(cellLabels(p, ph, l), promtext.Label{Name: "cost", Value: s.Cost}), c.SimNS)
		}
	})
	pw.Metric("rmr_passages_total", "Finished lock passages by result.", "counter")
	pw.Sample("rmr_passages_total", []promtext.Label{{Name: "result", Value: "completed"}}, s.Passages)
	pw.Sample("rmr_passages_total", []promtext.Label{{Name: "result", Value: "aborted"}}, s.AbortedPassages)
	pw.Metric("rmr_passage_cost_rmrs", "RMRs incurred per finished passage.", "histogram")
	buckets := make([]promtext.Bucket, 0, numPassageBuckets)
	var cum int64
	for b := 0; b < numPassageBuckets-1; b++ {
		cum += s.PassageHist[b]
		buckets = append(buckets, promtext.Bucket{LE: fmt.Sprintf("%d", int64(1)<<b-1), Cum: cum})
	}
	cum += s.PassageHist[numPassageBuckets-1]
	buckets = append(buckets, promtext.Bucket{LE: "+Inf", Cum: cum})
	pw.Histogram("rmr_passage_cost_rmrs", nil, buckets, s.PassageRMRSum)
	pw.Metric("rmr_passage_sim_ns", "Simulated time per finished passage under the cost model.", "histogram")
	// Emit log2 buckets only up to the last populated one — cumulative
	// counts stay valid with +Inf closing the series — so the exposition
	// does not carry ~40 empty tail buckets per scrape.
	lastSim := 0
	for b, n := range s.PassageSimHist {
		if n != 0 {
			lastSim = b
		}
	}
	simBuckets := make([]promtext.Bucket, 0, lastSim+2)
	var simCum int64
	for b := 0; b <= lastSim; b++ {
		simCum += s.PassageSimHist[b]
		simBuckets = append(simBuckets, promtext.Bucket{LE: fmt.Sprintf("%d", int64(1)<<b-1), Cum: simCum})
	}
	for b := lastSim + 1; b < numSimBuckets; b++ {
		simCum += s.PassageSimHist[b]
	}
	simBuckets = append(simBuckets, promtext.Bucket{LE: "+Inf", Cum: simCum})
	pw.Histogram("rmr_passage_sim_ns", []promtext.Label{{Name: "cost", Value: s.Cost}}, simBuckets, s.PassageSimSum)
	return pw.Err()
}

// eachCell visits the non-zero cells in deterministic (proc, phase, label)
// order, with labels ordered by name within each (proc, phase) so that
// exposition output is stable regardless of interning order.
func (s *Snapshot) eachCell(fn func(p int, ph Phase, l int32, c Cell)) {
	byName := make([]int32, len(s.Labels))
	for i := range byName {
		byName[i] = int32(i)
	}
	sort.Slice(byName, func(i, j int) bool { return s.Labels[byName[i]] < s.Labels[byName[j]] })
	for p := 0; p < s.Procs; p++ {
		for ph := Phase(0); ph < NumPhases; ph++ {
			for _, l := range byName {
				c := s.Cell(p, ph, l)
				if !c.zero() {
					fn(p, ph, l, c)
				}
			}
		}
	}
}

// errWriter folds fmt errors so report writers can stay linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err == nil {
		_, e.err = fmt.Fprintf(e.w, format, args...)
	}
}
