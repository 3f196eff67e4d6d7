package harness

import (
	"fmt"
	"sync"

	"sublock/locks"
	"sublock/rmr"
)

// ExhaustiveBody returns an rmr.Body that runs one passage of algo per
// process through a PassageLog and checks the Theorem 2 safety properties
// as Passages does: mutual exclusion (the Scheduler's check, which fails
// the run with rmr.ErrMutualExclusion when two processes hold the critical
// section), and the two passage rules — every successful Enter declares
// rmr.PhaseCS, and every false Enter holds its abort signal. Unlike
// Passages, processes in [0, aborters) receive their abort signal from a
// dedicated signal process — id n, so the body schedules n+1 processes
// when aborters > 0 — whose single step the explorer places at every
// possible point in the schedule, so an aborter that gives up before its
// signal arrives fails the run.
//
// Under a fault plan (rmr.Explorer.RunFaults, or SetFaultPlan for a
// replay) a process the plan crashed never returns from its passage, so
// nothing judges it. Mutual exclusion stays unconditional: a process that
// crashed holding the critical section keeps holding it, so no other
// process may enter after the crash. The body installs no plan itself.
//
// The body satisfies the Explorer's determinism contract: processes are
// launched with GoProc, and every run starts from the same state. A body
// keeps its built configurations in a pool, one per worker in steady
// state. A lock registered Rewindable is built once per configuration, and
// each run rewinds the memory to the mark taken right after the build
// (rmr.Memory.Rewind); any other lock is rebuilt per run on the rewound,
// empty memory. The body is safe for Workers > 1: concurrent runs share
// no configuration.
func ExhaustiveBody(model rmr.Model, algo Algo, w, n, aborters int) rmr.Body {
	return exhaustiveBody(model, algo, w, n, aborters, nil, rewindable(algo))
}

// rewindable reports whether algo's registry entry declares its run-time
// state memory-only (locks.Info.Rewindable).
func rewindable(algo Algo) bool {
	info, ok := locks.Lookup(string(algo))
	return ok && info.Rewindable
}

// exhaustiveBody is ExhaustiveBody with an optional tracer installed on each
// run's memory before the schedule starts — the hook ReplayTraced uses to
// flight-record a violating schedule — and the rewind decision explicit.
// The tracer must not change behavior, or the replayed run diverges from
// the explored one.
func exhaustiveBody(model rmr.Model, algo Algo, w, n, aborters int, tracer rmr.Tracer, rewind bool) rmr.Body {
	nprocs := n
	if aborters > 0 {
		nprocs++
	}
	// pool holds configurations between runs. A pooled memory is rewound,
	// which detaches its gate, so it holds no reference to the scheduler
	// that drove it (nor, through it, to an exploration's visited set).
	var pool sync.Pool
	return func(s *rmr.Scheduler, budget int) error {
		r, _ := pool.Get().(*replayLock)
		if r == nil {
			r = newReplayLock(model, nprocs, n, aborters)
		}
		err := r.run(s, budget, algo, w, tracer, rewind)
		r.m.Rewind() // to the mark, or — when not rewinding — to empty
		pool.Put(r)
		return err
	}
}

// replayLock is one configuration of an exhaustive body, reused from run
// to run: the memory, the lock built in it when the body rewinds, and the
// bookkeeping the process bodies share, which are bound to it once.
type replayLock struct {
	m        *rmr.Memory
	fn       HandleFn // the built lock when it is rewound; nil before the first build
	n        int
	aborters int
	procs    []func() // process bodies, signal process last
	handles  []Handle
	log      *PassageLog
	scratch  rmr.Addr // the signal process's one step reads it
}

func newReplayLock(model rmr.Model, nprocs, n, aborters int) *replayLock {
	r := &replayLock{
		m:        rmr.NewMemory(model, nprocs, nil),
		n:        n,
		aborters: aborters,
		procs:    make([]func(), nprocs),
		handles:  make([]Handle, n),
		log:      NewPassageLog(n),
	}
	for i := 0; i < n; i++ {
		r.procs[i] = func() { r.pass(i) }
	}
	if aborters > 0 {
		r.procs[n] = r.signal
	}
	return r
}

// pass is process i's body: one passage.
func (r *replayLock) pass(i int) {
	r.log.Pass(r.m.Proc(i), r.handles[i])
}

// signal is the signal process's body: one step, then the abort signals.
func (r *replayLock) signal() {
	r.m.Proc(r.n).Read(r.scratch)
	for v := 0; v < r.aborters; v++ {
		r.m.Proc(v).SignalAbort()
	}
}

// run builds the lock unless a rewound build is at hand, runs one schedule
// of it under s, and checks the properties.
func (r *replayLock) run(s *rmr.Scheduler, budget int, algo Algo, w int, tracer rmr.Tracer, rewind bool) error {
	m := r.m
	fn := r.fn
	if fn == nil {
		var err error
		if fn, err = locks.Build(m, string(algo), w, r.n); err != nil {
			return err
		}
		if rewind {
			m.Mark()
			r.fn = fn
		}
	}
	if tracer != nil {
		m.SetTracer(tracer)
	}
	m.SetGate(s)
	for i := range r.handles {
		r.handles[i] = fn(m.Proc(i))
	}
	r.log.reset()
	if r.aborters > 0 {
		r.scratch = m.Alloc(0)
	}
	for pid, body := range r.procs {
		s.GoProc(pid, body)
	}
	if err := s.Run(budget); err != nil {
		// Nothing reads a stalled or failed run's state, and a crash can
		// wedge survivors beyond cooperation (a non-abortable spin loop
		// over an abandoned lock never exits), so the run is killed rather
		// than drained.
		s.DrainKill()
		return err
	}
	return r.log.err
}

// ExploreConfig parameterizes Explore: the lock configuration (as for
// ExhaustiveBody) plus the rmr.Explorer knobs to run it under.
type ExploreConfig struct {
	Model    rmr.Model
	Algo     Algo
	W        int
	N        int
	Aborters int

	MaxSteps     int // schedule length bound
	MaxSchedules int // replay cap; 0 = none
	// Workers is the number of exploration workers; ≤1 selects one. There
	// is one engine: a single worker visits schedules in lexicographic
	// order. A shard is a frontier slice (rmr.Checkpoint.Split) whose merge
	// is exact under sleep sets.
	Workers   int
	Reduction rmr.Reduction // rmr.SleepSets enables partial-order reduction
	Monitor   *rmr.Monitor  // optional live progress counters

	Visited bool // state-hash visited caching
	// Symmetry enables the Explorer's process-id symmetry reduction. It is
	// applied only when the lock's registry entry is IDSymmetric; the
	// interchangeability classes follow the body's roles (aborters,
	// non-aborters, the signal process — see SymmetryClasses).
	Symmetry bool
}

// SimVerifyConfig is the benchmark's sim-verify exploration: the paper's
// lock, CC, three processes and one aborter, 22 steps, sleep sets and
// visited caching, one worker.
var SimVerifyConfig = ExploreConfig{
	Model: rmr.CC, Algo: AlgoPaper, W: 4, N: 3, Aborters: 1,
	MaxSteps: 22, Workers: 1, Reduction: rmr.SleepSets, Visited: true,
}

// SymmetryClasses returns the process-interchangeability partition of the
// exhaustive body under cfg, or nil when the symmetry reduction must stay
// off (lock not registered id-symmetric, or unknown). Within the body,
// aborters (ids [0, Aborters)) run one program, the remaining lock
// processes another, and the dedicated signal process (id N) a third —
// ids are interchangeable exactly within those roles.
func (cfg ExploreConfig) SymmetryClasses() [][]int {
	info, ok := locks.Lookup(string(cfg.Algo))
	if !ok || !info.IDSymmetric {
		return nil
	}
	var classes [][]int
	appendRange := func(lo, hi int) {
		if hi-lo < 2 {
			return // singleton classes are implicit
		}
		ids := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			ids = append(ids, i)
		}
		classes = append(classes, ids)
	}
	appendRange(0, cfg.Aborters)
	appendRange(cfg.Aborters, cfg.N)
	return classes
}

// Procs returns the number of scheduled processes the exploration runs:
// N, plus the dedicated abort-signal process when Aborters > 0.
func (cfg ExploreConfig) Procs() int {
	if cfg.Aborters > 0 {
		return cfg.N + 1
	}
	return cfg.N
}

// Explore runs the bounded-exhaustive exploration the CLIs and the
// conformance suite share: rmr.Explorer over ExhaustiveBody with the
// config's knobs. Violations surface as *rmr.ErrExplore, replayable with
// ReplayTraced under the same config.
func Explore(cfg ExploreConfig) (rmr.Result, error) {
	e := cfg.explorer()
	body := ExhaustiveBody(cfg.Model, cfg.Algo, cfg.W, cfg.N, cfg.Aborters)
	return e.Run(cfg.Procs(), body)
}

// explorer builds the rmr.Explorer for cfg. The symmetry knob is honored
// only when the lock is registered id-symmetric and a non-trivial class
// exists; everything else passes through.
func (cfg ExploreConfig) explorer() *rmr.Explorer {
	e := &rmr.Explorer{
		MaxSteps:     cfg.MaxSteps,
		MaxSchedules: cfg.MaxSchedules,
		Workers:      cfg.Workers,
		Reduction:    cfg.Reduction,
		Monitor:      cfg.Monitor,
		Visited:      cfg.Visited,
	}
	if cfg.Symmetry {
		if classes := cfg.SymmetryClasses(); classes != nil {
			e.Symmetry = true
			e.SymmetryClasses = classes
		}
	}
	return e
}

// CheckpointKey is the opaque configuration key ExploreCheckpoint stores
// in the artifact: everything outside the rmr.Explorer knobs that shapes
// the explored tree. Resuming under a different key is refused.
func (cfg ExploreConfig) CheckpointKey() string {
	return fmt.Sprintf("%s/model=%d/w=%d/n=%d/ab=%d", cfg.Algo, cfg.Model, cfg.W, cfg.N, cfg.Aborters)
}

// ExploreCheckpoint is Explore with frontier checkpointing: resume is a
// prior run's artifact (nil for a fresh start) and the returned checkpoint
// carries the pending frontier when MaxSchedules capped the search. The
// deep-explore CI job chains these across pushes, and cmd/locktest -shard
// splits one (rmr.Checkpoint.Split) to fan an exploration out.
func ExploreCheckpoint(cfg ExploreConfig, resume *rmr.Checkpoint) (rmr.Result, *rmr.Checkpoint, error) {
	e := cfg.explorer()
	body := ExhaustiveBody(cfg.Model, cfg.Algo, cfg.W, cfg.N, cfg.Aborters)
	return e.RunCheckpoint(cfg.Procs(), body, cfg.CheckpointKey(), resume)
}

// ReplayTraced re-runs one schedule of the exhaustive body — as reported by
// a *rmr.ErrExplore from an exploration over ExhaustiveBody with the same
// parameters — with a flight-recorder ring tracer installed. It returns the
// ring holding the schedule's last ringSize events and the property
// violation the replay reproduced (nil if the run unexpectedly passes,
// which indicates mismatched parameters).
func ReplayTraced(model rmr.Model, algo Algo, w, n, aborters int, schedule []int, maxSteps, ringSize int) (*rmr.Ring, error) {
	ring := rmr.NewRing(ringSize)
	body := exhaustiveBody(model, algo, w, n, aborters, ring.Record, rewindable(algo))
	nprocs := n
	if aborters > 0 {
		nprocs++
	}
	s := rmr.NewScheduler(nprocs, rmr.ReplayPick(schedule))
	return ring, body(s, maxSteps)
}
