// Package obs is the native-path observability layer for the abortable
// lock family: per-passage latency histograms, waiting-tier counters, and
// doorway/retirement event counts for abortable.Lock, abortable.OneShot,
// and abortable.HandlePool, exported as Prometheus text or JSON over HTTP
// and — optionally — as runtime/trace tasks/regions and runtime/pprof
// goroutine labels. A collector is the only place these events are
// counted: an unobserved lock keeps no event counters.
//
// The design mirrors the simulator layer (docs/OBSERVABILITY.md): free
// when off. A lock carries one atomic pointer to a *Metrics; with the
// pointer nil the fast path pays exactly that one load and allocates
// nothing (CI-guarded by the abortable alloc tests). With a collector
// attached, recording is wait-free atomic adds into preallocated
// histograms — still allocation-free — so a live service can keep the
// endpoint scraped under full load.
//
//	m := obs.New("orders", obs.Config{})
//	reg := obs.NewRegistry()
//	reg.MustRegister(m)
//	lk.SetObserver(m)
//	http.Handle("/metrics", reg.Handler())
package obs

import (
	"context"
	"runtime/pprof"
	"runtime/trace"
	"sync/atomic"
	"time"
)

// Config selects the optional, costlier integrations of a Metrics.
type Config struct {
	// Trace wraps every passage in a runtime/trace task named after the
	// lock, with doorway/wait/cs/exit regions, whenever a trace is being
	// captured (trace.IsEnabled). go tool trace then attributes wall time
	// to named locks and phases. Tasks allocate, so this is off by default.
	Trace bool
	// ProfileLabels tags the goroutine with pprof labels lock=<name> and
	// phase=acquire|cs for the duration of a passage, so CPU profiles
	// split samples by lock and phase. Labels are goroutine-wide: the
	// passage overwrites any labels the caller had set.
	ProfileLabels bool
}

// Metrics collects one lock's (or pool's) native-path events. All methods
// are safe for concurrent use and allocation-free; the recording methods
// are wait-free. Attach with abortable's SetObserver methods.
type Metrics struct {
	name string
	cfg  Config

	// pprof label contexts, precomputed so passage-time labeling is two
	// runtime calls and no allocation.
	acquireCtx, csCtx context.Context

	// Passage latency histograms (nanoseconds).
	acquire Hist // successful Enter, call to grant
	abort   Hist // attempts that returned unacquired
	handoff Hist // Exit: release, handoff signal, retirement work
	park    Hist // one tier-3 park: sleep to wake (park wake latency)
	borrow  Hist // completed HandlePool borrows: wait for a free handle

	// Waiting-tier counters.
	spins   atomic.Int64 // tier-1 spin rounds burned
	yields  atomic.Int64 // tier-2 Gosched rounds
	parks   atomic.Int64 // tier-3 parks taken
	unparks atomic.Int64 // parker wakes delivered by signallers

	// Doorway and lifecycle events.
	acquires      atomic.Int64 // passages granted
	aborts        atomic.Int64 // attempts abandoned
	arrivals      atomic.Int64 // doorway F&A slots claimed
	closedGate    atomic.Int64 // arrivals bounced off a retired instance
	switchWaits   atomic.Int64 // waits for an instance switch (lines 57–61)
	switches      atomic.Int64 // instance retirements completed
	waiterRetires atomic.Int64 // retirements won by a switch-waiter

	// HandlePool counters.
	borrows     atomic.Int64 // handles borrowed
	borrowWaits atomic.Int64 // borrows that blocked for a handle, cancelled ones included
}

// New creates a collector named name (the value of the lock label on
// every exported series).
func New(name string, cfg Config) *Metrics {
	m := &Metrics{name: name, cfg: cfg}
	if cfg.ProfileLabels {
		m.acquireCtx = pprof.WithLabels(context.Background(),
			pprof.Labels("lock", name, "phase", "acquire"))
		m.csCtx = pprof.WithLabels(context.Background(),
			pprof.Labels("lock", name, "phase", "cs"))
	}
	return m
}

// Name returns the collector's lock label.
func (m *Metrics) Name() string { return m.name }

// --- recording (called from the abortable hot paths) ------------------------

// RecordAcquire accounts one granted passage and its acquisition latency.
func (m *Metrics) RecordAcquire(d time.Duration) {
	m.acquires.Add(1)
	m.acquire.Observe(d.Nanoseconds())
}

// RecordAbort accounts one abandoned attempt and its latency.
func (m *Metrics) RecordAbort(d time.Duration) {
	m.aborts.Add(1)
	m.abort.Observe(d.Nanoseconds())
}

// RecordHandoff accounts one release (Exit) and its latency.
func (m *Metrics) RecordHandoff(d time.Duration) { m.handoff.Observe(d.Nanoseconds()) }

// IncPark accounts one tier-3 park, as the waiter goes to sleep.
func (m *Metrics) IncPark() { m.parks.Add(1) }

// RecordPark records one finished park's wake latency (time slept).
func (m *Metrics) RecordPark(d time.Duration) { m.park.Observe(d.Nanoseconds()) }

// IncBorrowWait accounts one HandlePool borrow that blocked because every
// handle was in flight, as it blocks: a wait later cancelled still counts.
func (m *Metrics) IncBorrowWait() { m.borrowWaits.Add(1) }

// RecordBorrow accounts one completed HandlePool borrow and its latency,
// request to handle in hand (zero for a borrow that did not block).
func (m *Metrics) RecordBorrow(d time.Duration) {
	m.borrows.Add(1)
	m.borrow.Observe(d.Nanoseconds())
}

// AddWaitRounds accounts the spin and yield rounds one wait loop burned.
func (m *Metrics) AddWaitRounds(spins, yields int64) {
	if spins > 0 {
		m.spins.Add(spins)
	}
	if yields > 0 {
		m.yields.Add(yields)
	}
}

// IncUnpark accounts one parker wake delivered by a signaller.
func (m *Metrics) IncUnpark() { m.unparks.Add(1) }

// IncArrival accounts one doorway slot claim.
func (m *Metrics) IncArrival() { m.arrivals.Add(1) }

// IncClosedGate accounts one arrival bounced off a retired instance.
func (m *Metrics) IncClosedGate() { m.closedGate.Add(1) }

// IncSwitchWait accounts one wait for an instance switch.
func (m *Metrics) IncSwitchWait() { m.switchWaits.Add(1) }

// IncSwitch accounts one completed instance retirement (switch).
func (m *Metrics) IncSwitch() { m.switches.Add(1) }

// IncWaiterRetire accounts a retirement won by a switch-waiter rather
// than a departing process.
func (m *Metrics) IncWaiterRetire() { m.waiterRetires.Add(1) }

// --- pprof labels -----------------------------------------------------------

// SetAcquireLabels tags the calling goroutine lock=<name>,phase=acquire.
// No-op unless ProfileLabels is configured.
func (m *Metrics) SetAcquireLabels() {
	if m.acquireCtx != nil {
		pprof.SetGoroutineLabels(m.acquireCtx)
	}
}

// SetCSLabels tags the calling goroutine lock=<name>,phase=cs.
func (m *Metrics) SetCSLabels() {
	if m.csCtx != nil {
		pprof.SetGoroutineLabels(m.csCtx)
	}
}

// ClearLabels resets the calling goroutine's pprof labels.
func (m *Metrics) ClearLabels() {
	if m.cfg.ProfileLabels {
		pprof.SetGoroutineLabels(context.Background())
	}
}

// --- runtime/trace spans ----------------------------------------------------

// Span is one passage's runtime/trace task with a current phase region.
// The zero Span (tracing off) is inert: all methods are cheap no-ops.
type Span struct {
	ctx    context.Context
	task   *trace.Task
	region *trace.Region
}

// StartPassage opens a trace task named "lock:<name>" with an initial
// phase region, when Trace is configured and a trace is being captured.
// Otherwise it returns the inert zero Span.
func (m *Metrics) StartPassage(phase string) Span {
	if !m.cfg.Trace || !trace.IsEnabled() {
		return Span{}
	}
	ctx, task := trace.NewTask(context.Background(), "lock:"+m.name)
	return Span{ctx: ctx, task: task, region: trace.StartRegion(ctx, phase)}
}

// Phase ends the current region and opens the named one.
func (s *Span) Phase(phase string) {
	if s.task == nil {
		return
	}
	if s.region != nil {
		s.region.End()
	}
	s.region = trace.StartRegion(s.ctx, phase)
}

// End closes the current region and the task.
func (s *Span) End() {
	if s.task == nil {
		return
	}
	if s.region != nil {
		s.region.End()
		s.region = nil
	}
	s.task.End()
	s.task = nil
}

// --- snapshots --------------------------------------------------------------

// Snapshot is a point-in-time copy of a Metrics, safe to read, aggregate,
// and serialize without synchronization. Counters are individually atomic
// and may be mutually skewed while the lock is in active use.
type Snapshot struct {
	Name string `json:"name"`

	Acquire HistSnapshot `json:"acquire_ns"`
	Abort   HistSnapshot `json:"abort_ns"`
	Handoff HistSnapshot `json:"handoff_ns"`
	Park    HistSnapshot `json:"park_wait_ns"`
	Borrow  HistSnapshot `json:"borrow_wait_ns"`

	Spins   int64 `json:"spin_rounds"`
	Yields  int64 `json:"yields"`
	Parks   int64 `json:"parks"`
	Unparks int64 `json:"unparks"`

	Acquires      int64 `json:"acquires"`
	Aborts        int64 `json:"aborts"`
	Arrivals      int64 `json:"arrivals"`
	ClosedGate    int64 `json:"closed_gate"`
	SwitchWaits   int64 `json:"switch_waits"`
	Switches      int64 `json:"switches"`
	WaiterRetires int64 `json:"waiter_retires"`

	Borrows     int64 `json:"borrows"`
	BorrowWaits int64 `json:"borrow_waits"`
}

// Snapshot copies the current counters.
func (m *Metrics) Snapshot() *Snapshot {
	return &Snapshot{
		Name:          m.name,
		Acquire:       m.acquire.Snapshot(),
		Abort:         m.abort.Snapshot(),
		Handoff:       m.handoff.Snapshot(),
		Park:          m.park.Snapshot(),
		Borrow:        m.borrow.Snapshot(),
		Spins:         m.spins.Load(),
		Yields:        m.yields.Load(),
		Parks:         m.parks.Load(),
		Unparks:       m.unparks.Load(),
		Acquires:      m.acquires.Load(),
		Aborts:        m.aborts.Load(),
		Arrivals:      m.arrivals.Load(),
		ClosedGate:    m.closedGate.Load(),
		SwitchWaits:   m.switchWaits.Load(),
		Switches:      m.switches.Load(),
		WaiterRetires: m.waiterRetires.Load(),
		Borrows:       m.borrows.Load(),
		BorrowWaits:   m.borrowWaits.Load(),
	}
}
