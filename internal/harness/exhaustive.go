package harness

import (
	"fmt"
	"sync/atomic"

	"sublock/locks"
	"sublock/rmr"
)

// ExhaustiveBody returns an rmr.Body that builds algo fresh, runs one
// passage per process, and checks the Theorem 2 safety properties (mutual
// exclusion; every non-aborter completes). Processes in [0, aborters)
// receive their abort signal from a dedicated signal process — id n, so
// the body schedules n+1 processes when aborters > 0 — whose single step
// the explorer places at every possible point in the schedule.
//
// The body satisfies the Explorer's determinism contract (all state is
// rebuilt per run, on a memory recycled in the state NewMemory returns;
// processes are launched with GoProc) and is safe for Workers > 1:
// concurrent invocations share nothing.
func ExhaustiveBody(model rmr.Model, algo Algo, w, n, aborters int) rmr.Body {
	return exhaustiveBody(model, algo, w, n, aborters, nil)
}

// exhaustiveBody is ExhaustiveBody with an optional tracer installed on each
// run's memory before the schedule starts — the hook ReplayTraced uses to
// flight-record a violating schedule. The tracer must not change behavior,
// or the replayed run diverges from the explored one.
func exhaustiveBody(model rmr.Model, algo Algo, w, n, aborters int, tracer rmr.Tracer) rmr.Body {
	return func(s *rmr.Scheduler, budget int) error {
		nprocs := n
		if aborters > 0 {
			nprocs++
		}
		m := replayMemory(model, nprocs)
		defer recycleMemory(m)
		fn, err := Build(m, algo, w, n)
		if err != nil {
			return err
		}
		if tracer != nil {
			m.SetTracer(tracer)
		}
		m.SetGate(s)
		var inCS, violations atomic.Int32
		entered := make([]bool, n)
		for i := 0; i < n; i++ {
			i := i
			h := fn(m.Proc(i))
			s.GoProc(i, func() {
				if h.Enter() {
					if inCS.Add(1) > 1 {
						violations.Add(1)
					}
					entered[i] = true
					inCS.Add(-1)
					h.Exit()
				}
			})
		}
		if aborters > 0 {
			p := m.Proc(nprocs - 1)
			scratch := m.Alloc(0)
			s.GoProc(nprocs-1, func() {
				p.Read(scratch)
				for v := 0; v < aborters; v++ {
					m.Proc(v).SignalAbort()
				}
			})
		}
		if err := s.Run(budget); err != nil {
			for i := 0; i < nprocs; i++ {
				m.Proc(i).SignalAbort()
			}
			s.Drain()
			return err
		}
		if violations.Load() != 0 {
			return fmt.Errorf("mutual exclusion violated")
		}
		for i := aborters; i < n; i++ {
			if !entered[i] {
				return fmt.Errorf("process %d starved", i)
			}
		}
		return nil
	}
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
	body := exhaustiveBody(model, algo, w, n, aborters, ring.Record)
	nprocs := n
	if aborters > 0 {
		nprocs++
	}
	s := rmr.NewScheduler(nprocs, rmr.ReplayPick(schedule))
	return ring, body(s, maxSteps)
}
