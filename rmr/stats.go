package rmr

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"sublock/internal/hist"
	"sublock/internal/promtext"
)

// Stats accumulates the observability counter matrix of one Memory:
// operation counts, RMR charges, cache hits, and invalidations, each
// broken down by process × passage phase × address label, plus
// per-passage RMR-cost and simulated-time histograms (internal/hist)
// driven by Proc.EnterPhase transitions.
//
// Build with NewStats and install with Memory.SetStats; while installed,
// every operation also records into it, so collection costs throughput
// but perturbs no RMR counts and no schedule. The label
// dimension is frozen at construction: words labeled after NewStats are
// attributed to the unlabeled column (pre-intern such labels with
// Memory.Label(0, 0, name) before constructing the Stats).
//
// Like its Memory, a Stats is single-goroutine: the counters are plain
// words, written by the operation being executed and read by Snapshot,
// which is taken after the run (SetStats refuses a running schedule).
type Stats struct {
	m       *Memory
	nprocs  int
	nlabels int
	cells   []Cell // [proc][phase][label], row-major

	completed int64     // passages that returned to idle without aborting
	aborted   int64     // passages that visited PhaseAbort
	rmrHist   hist.Hist // RMRs per finished passage
	simHist   hist.Hist // simulated time per finished passage

	inPassage []passageState // each process's open passage
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
		cells:     make([]Cell, m.nprocs*NumPhases*len(labels)),
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
		c.Ops[op-1]++
	}
	if rmr {
		c.RMRs++
	}
	if cost > 0 {
		c.SimNS += cost
	}
	if hit {
		c.Hits++
	}
	c.Invals += int64(invals)
}

// phaseChange maintains passage accounting: a passage opens on the first
// transition out of PhaseIdle, is marked aborted if it visits PhaseAbort,
// and closes — contributing its RMR and simulated-time deltas to the
// passage histograms — on the transition back to PhaseIdle.
func (st *Stats) phaseChange(p *Proc, old, new Phase) {
	ps := &st.inPassage[p.id]
	switch {
	case !ps.active && old == PhaseIdle && new != PhaseIdle:
		ps.active, ps.aborted = true, false
		ps.start, ps.startSim = p.rmrs, p.SimTime()
	case new == PhaseAbort:
		ps.aborted = true
	case new == PhaseIdle && ps.active:
		st.rmrHist.Observe(p.rmrs - ps.start)
		st.simHist.Observe(p.SimTime() - ps.startSim)
		if ps.aborted {
			st.aborted++
		} else {
			st.completed++
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
	Passages        int64         // finished passages that did not abort
	AbortedPassages int64         // finished passages that visited PhaseAbort
	PassageRMRs     hist.Snapshot // RMRs per finished passage (Sum: the total)
	PassageSim      hist.Snapshot // simulated time per finished passage

	cells []Cell
}

// Snapshot copies the current counters.
func (st *Stats) Snapshot() *Snapshot {
	return &Snapshot{
		Model:           st.m.model,
		Procs:           st.nprocs,
		Labels:          st.m.Labels()[:st.nlabels],
		Cost:            st.m.CostModel().Name(),
		Passages:        st.completed,
		AbortedPassages: st.aborted,
		PassageRMRs:     st.rmrHist.Snapshot(),
		PassageSim:      st.simHist.Snapshot(),
		cells:           append([]Cell(nil), st.cells...),
	}
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
	tw.printf("passages: completed=%d aborted=%d rmr-sum=%d\n", s.Passages, s.AbortedPassages, s.PassageRMRs.Sum)
	if s.Passages+s.AbortedPassages > 0 {
		tw.printf("simulated passage latency (cost=%s): sum=%d p50≤%d p95≤%d p99≤%d\n",
			s.Cost, s.PassageSim.Sum,
			s.PassageSim.Quantile(0.50), s.PassageSim.Quantile(0.95), s.PassageSim.Quantile(0.99))
		tw.printf("passage cost histogram (rmrs):")
		for b, n := range s.PassageRMRs.Counts {
			if n == 0 {
				continue
			}
			hi := hist.Upper(b)
			lo := (hi + 1) / 2
			if b == hist.NumBuckets-1 {
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
// rmr_passage_cost_rmrs and rmr_passage_sim_ns histograms, whose buckets
// stop after the last populated one (then +Inf). All-zero series are
// omitted and series order is deterministic.
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
	pw.Histogram("rmr_passage_cost_rmrs", nil, s.PassageRMRs.Buckets(), s.PassageRMRs.Sum)
	pw.Metric("rmr_passage_sim_ns", "Simulated time per finished passage under the cost model.", "histogram")
	pw.Histogram("rmr_passage_sim_ns", []promtext.Label{{Name: "cost", Value: s.Cost}}, s.PassageSim.Buckets(), s.PassageSim.Sum)
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
