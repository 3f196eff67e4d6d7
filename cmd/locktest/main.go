// Command locktest stress-tests and schedule-explores the simulated lock
// algorithms: it runs one passage per process under many seeded random
// interleavings, checking mutual exclusion and termination, with optional
// abort injection — the E8 (Theorem 2 properties) entry point.
//
// Usage:
//
//	locktest [-lock paper] [-n 16] [-w 8] [-seeds 100] [-aborters 0] [-model cc]
//
// The lock is any name in the locks registry (-list-locks enumerates them).
//
// Every seeded run — plain, priced, or under -faults/-watchdog — goes
// through harness.Passages and signals processes [0, aborters) before they
// start; -exhaustive signals them from a dedicated signal process whose
// single step the explorer places at every point of the schedule.
//
// -cost NAME prices the seeded schedules under a deterministic latency
// model (see rmr.CostModelNames; -cost-seed seeds it) and reports the
// accrued simulated time. Pricing is observe-only — schedules, RMR counts,
// and verdicts are unchanged — and is a seeded-mode feature: combining it
// with -exhaustive or -faults is an error rather than a silently unpriced
// run.
//
// With -exhaustive, -progress prints live explored/pruned schedule counts
// and throughput to stderr, and the final report includes the depth
// histogram of explored choice sequences. When the exploration finds a
// property violation, the offending schedule is replayed with a
// flight-recorder tracer and the last events before the violation are
// dumped alongside the schedule.
//
// Exploration reductions stack: -por (sleep sets), -visited (state-hash
// caching of re-converging interleavings), -symmetry (process-id symmetry
// for locks registered id-symmetric); there is one exploration engine, and
// with -workers 1 it visits schedules in lexicographic order. When
// -exhaustcap stops the search, the run reports exhausted=false.
//
// Fault injection (see docs/FAULTS.md): -faults runs the seeded schedules
// under a scripted fault plan ("crash:0@4,stall:1@2+15"); -crash-points
// makes -exhaustive sweep crash-stop plans at the given operation attempts
// on top of the schedule exploration; -watchdog arms the starvation
// watchdog at the given overtaking bound in either mode. -deadline bounds
// the whole run in wall-clock time — on expiry the in-flight run's fault
// report and replay schedule are dumped and the exit status is 3.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"sublock/internal/harness"
	"sublock/locks"
	"sublock/rmr"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "locktest:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("locktest", flag.ContinueOnError)
	var lock string
	fs.StringVar(&lock, "lock", "paper", "lock to test: any registered name (see -list-locks)")
	listLocks := fs.Bool("list-locks", false, "list the registered locks and exit")
	n := fs.Int("n", 16, "number of processes")
	w := fs.Int("w", 8, "tree arity for the paper's algorithms")
	seeds := fs.Int("seeds", 100, "number of seeded schedules to explore")
	aborters := fs.Int("aborters", 0, "processes [0, k) that receive the abort signal: seeded runs signal them before they start, -exhaustive from a dedicated signal process")
	model := fs.String("model", "cc", "memory model: cc or dsm")
	maxSteps := fs.Int("maxsteps", 0, fmt.Sprintf("schedule step budget per seed (0: %d, or harness.FaultStepBudget(n) under -faults or -watchdog: %d at n = 16, 22·n² above 116)",
		harness.StepBudget, harness.FaultStepBudget(16)))
	exhaustive := fs.Bool("exhaustive", false, "bounded-exhaustive exploration instead of seeded sampling (use small -n)")
	exhaustSteps := fs.Int("exhauststeps", 24, "schedule length bound for -exhaustive")
	exhaustCap := fs.Int("exhaustcap", 200000, "schedule cap for -exhaustive (0 = none)")
	workers := fs.Int("workers", 0, "parallel exploration workers for -exhaustive (0 = GOMAXPROCS)")
	por := fs.Bool("por", false, "partial-order reduction for -exhaustive (sleep sets; prunes equivalent interleavings)")
	visited := fs.Bool("visited", false, "state-hash visited caching for -exhaustive (cuts replays that re-converge on an explored state)")
	symmetry := fs.Bool("symmetry", false, "process-id symmetry reduction for -exhaustive (id-symmetric locks only; see locks registry)")
	progress := fs.Bool("progress", false, "print live exploration counters to stderr (-exhaustive)")
	ringSize := fs.Int("ring", 64, "flight-recorder size for violation dumps (-exhaustive)")
	faultsSpec := fs.String("faults", "", "inject scripted faults into every seeded schedule: `kind:pid@op[+delay],...` (crash, stall)")
	crashPoints := fs.String("crash-points", "", "with -exhaustive, sweep crash-stop plans at these 1-based `op,op,...` attempts per victim")
	watchdog := fs.Int("watchdog", 0, "arm the starvation watchdog at this overtaking bound (0 = off)")
	costName := fs.String("cost", "", "price seeded schedules under this cost `model` (see rmr.CostModelNames) and report simulated time")
	costSeed := fs.Int64("cost-seed", 1, "seed for the deterministic cost model")
	deadline := fs.Duration("deadline", 0, "wall-clock bound for the whole run; on expiry dump the fault report and exit 3")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *listLocks {
		for _, info := range locks.Infos() {
			fmt.Printf("  %-24s %s\n", info.Name, info.Summary)
		}
		return nil
	}
	info, ok := locks.Lookup(lock)
	if !ok {
		return &locks.ErrUnknown{Name: lock, Registered: locks.Names()}
	}
	mdl := rmr.CC
	if *model == "dsm" {
		mdl = rmr.DSM
	} else if *model != "cc" {
		return fmt.Errorf("unknown model %q", *model)
	}
	if mdl == rmr.DSM && info.CCOnly {
		return fmt.Errorf("%s requires the CC memory model", lock)
	}
	if *aborters >= *n {
		return fmt.Errorf("aborters (%d) must be < n (%d)", *aborters, *n)
	}
	if *aborters > 0 && !info.Abortable {
		return fmt.Errorf("%s is not abortable", lock)
	}
	plan, err := harness.ParseFaults(*faultsSpec)
	if err != nil {
		return err
	}
	points, err := harness.ParseCrashPoints(*crashPoints)
	if err != nil {
		return err
	}
	if plan != nil && *exhaustive {
		return fmt.Errorf("-faults scripts one plan into seeded runs; with -exhaustive use -crash-points to sweep crash plans")
	}
	if points != nil && !*exhaustive {
		return fmt.Errorf("-crash-points sweeps plans under -exhaustive; for seeded runs script a plan with -faults")
	}
	var cost rmr.CostModel
	if *costName != "" {
		if *exhaustive {
			return fmt.Errorf("-cost prices plain seeded runs; it does not combine with -exhaustive")
		}
		if plan != nil || *watchdog > 0 {
			return fmt.Errorf("-cost prices plain seeded runs; it does not combine with -faults or -watchdog")
		}
		cost, err = rmr.NewCostModel(*costName, *costSeed)
		if err != nil {
			return err
		}
	}

	// current tracks the in-flight scheduler so an expired deadline can dump
	// the fault report and replay schedule of whatever seeded run was stuck;
	// mon counts an exploration's replays, which the dump reports instead.
	var current atomic.Pointer[rmr.Scheduler]
	var mon *rmr.Monitor
	if *exhaustive {
		mon = &rmr.Monitor{}
	}
	if *deadline > 0 {
		timer := time.AfterFunc(*deadline, func() {
			fmt.Fprintf(os.Stderr, "locktest: deadline %v exceeded\n", *deadline)
			if s := current.Load(); s != nil {
				harness.WriteFaultReport(os.Stderr, s.Faults(), s.Schedule())
			}
			if mon != nil {
				explored, pruned, equivalent := mon.Counts()
				visited, symmetry := mon.CutCounts()
				fmt.Fprintf(os.Stderr, "  so far: %d schedules explored, %d pruned, %d cut as equivalent, %d visited-state hits, %d symmetry cuts; deepest replay %d steps\n",
					explored, pruned, equivalent, visited, symmetry, mon.Deepest())
				writeReplays(os.Stderr, mon)
			}
			os.Exit(3)
		})
		defer timer.Stop()
	}

	if *exhaustive {
		return runExhaustive(exhaustiveConfig{
			model: mdl, algo: harness.Algo(lock), w: *w, n: *n, aborters: *aborters,
			maxSteps: *exhaustSteps, cap: *exhaustCap, workers: *workers, por: *por,
			visited: *visited, symmetry: *symmetry,
			progress: *progress, ringSize: *ringSize,
			crashPoints: points, watchdog: *watchdog, mon: mon,
		})
	}
	return runSeeded(seededConfig{
		model: mdl, algo: harness.Algo(lock), cost: cost, costSeed: *costSeed,
		w: *w, n: *n, aborters: *aborters, seeds: *seeds, maxSteps: *maxSteps,
		plan: plan, watchdog: *watchdog,
	}, &current)
}

// seededConfig parameterizes runSeeded. A nil cost leaves the runs on the
// default Unit accounting; plan and watchdog are off when nil and 0; a zero
// maxSteps selects harness.StepBudget, or harness.FaultStepBudget(n) under
// a plan or the watchdog.
type seededConfig struct {
	model    rmr.Model
	algo     harness.Algo
	cost     rmr.CostModel
	costSeed int64
	w        int
	n        int
	aborters int
	seeds    int
	maxSteps int
	plan     *rmr.FaultPlan
	watchdog int
}

// runSeeded runs one schedule per seed in [0, seeds): one passage per
// process through harness.Passages under RandomPick(seed), with processes
// [0, aborters) signalled before they start. It publishes each run's
// scheduler in current for the deadline dump. Under a fault plan or the
// watchdog (either of which records the schedule), a failing seed dumps
// its fault report, and a seed that a fired fault wedged past the step
// budget is tallied instead of failing the run: no registered lock claims
// crash recovery, so a crash may strand the survivors.
func runSeeded(cfg seededConfig, current *atomic.Pointer[rmr.Scheduler]) error {
	faulted := cfg.plan != nil || cfg.watchdog > 0
	budget := cfg.maxSteps
	if budget == 0 {
		budget = harness.StepBudget
		if faulted {
			budget = harness.FaultStepBudget(cfg.n)
		}
	}
	var entered, aborted, fired, wedged int
	var totalSim, maxSim int64
	for seed := int64(0); seed < int64(cfg.seeds); seed++ {
		s := rmr.NewScheduler(cfg.n, rmr.RandomPick(seed))
		if cfg.plan != nil {
			s.SetFaultPlan(cfg.plan)
		}
		if cfg.watchdog > 0 {
			s.SetWatchdog(cfg.watchdog)
		}
		current.Store(s)
		m := rmr.NewMemory(cfg.model, cfg.n, nil)
		fn, err := locks.Build(m, string(cfg.algo), cfg.w, cfg.n)
		if err != nil {
			return err
		}
		if cfg.cost != nil {
			m.SetCostModel(cfg.cost)
		}
		ok, err := harness.Passages(s, m, fn, cfg.aborters, budget)
		faults := s.Faults()
		fired += len(faults)
		if err != nil {
			if errors.Is(err, rmr.ErrStepLimit) && cfg.plan != nil && len(faults) > 0 {
				wedged++
				continue
			}
			if faulted {
				harness.WriteFaultReport(os.Stderr, faults, s.Schedule())
			}
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		for i, e := range ok {
			if e {
				entered++
			} else {
				aborted++
			}
			st := m.Proc(i).SimTime()
			totalSim += st
			maxSim = max(maxSim, st)
		}
	}
	if faulted {
		fmt.Printf("%s: %d seeds × %d processes (%d aborters) under faults: OK\n", cfg.algo, cfg.seeds, cfg.n, cfg.aborters)
		if cfg.plan != nil {
			fmt.Printf("  fault plan: %v\n", cfg.plan)
		}
		if cfg.watchdog > 0 {
			fmt.Printf("  watchdog bound: %d overtakes\n", cfg.watchdog)
		}
		fmt.Printf("  faults fired: %d; seeds wedged by a crash (step budget %d reached, fault attributed): %d\n", fired, budget, wedged)
		fmt.Println("  mutual exclusion held and every survivor completed in every schedule")
		return nil
	}
	fmt.Printf("%s: %d seeds × %d processes (%d aborters): OK\n", cfg.algo, cfg.seeds, cfg.n, cfg.aborters)
	fmt.Printf("  passages completed: %d, attempts aborted: %d\n", entered, aborted)
	if cfg.cost != nil && cfg.cost.Name() != "unit" {
		fmt.Printf("  simulated time (cost=%s, cost-seed=%d): total=%d ns, max per-process=%d ns\n",
			cfg.cost.Name(), cfg.costSeed, totalSim, maxSim)
	}
	fmt.Println("  mutual exclusion held in every explored schedule; every schedule terminated")
	return nil
}

type exhaustiveConfig struct {
	model       rmr.Model
	algo        harness.Algo
	w           int
	n           int
	aborters    int
	maxSteps    int
	cap         int
	workers     int
	por         bool
	visited     bool
	symmetry    bool
	progress    bool
	ringSize    int
	crashPoints []int
	watchdog    int
	mon         *rmr.Monitor // counts the exploration's replays
}

// runExhaustive enumerates every schedule of length ≤ maxSteps (bounded
// model checking via harness.Explore): processes in [0, aborters) receive
// their abort signal from a dedicated signal process whose single step the
// explorer places at every possible point. workers > 1 partitions the
// choice tree across that many goroutines (0 resolves to GOMAXPROCS); an
// uncapped run reports the same counts at any worker count. With por,
// schedules that only reorder commuting steps of explored ones are cut
// instead of replayed.
func runExhaustive(cfg exhaustiveConfig) error {
	workers := cfg.workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	reduction := rmr.NoReduction
	if cfg.por {
		reduction = rmr.SleepSets
	}
	faulted := len(cfg.crashPoints) > 0 || cfg.watchdog > 0
	ec := harness.ExploreConfig{
		Model: cfg.model, Algo: cfg.algo, W: cfg.w, N: cfg.n, Aborters: cfg.aborters,
		MaxSteps: cfg.maxSteps, MaxSchedules: cfg.cap, Workers: workers, Reduction: reduction,
		Visited: cfg.visited, Symmetry: cfg.symmetry,
	}
	// The header names the reductions that run. A fault sweep explores
	// without visited-state caching or symmetry (harness.ExploreFaults),
	// and the watchdog also turns sleep sets off (rmr.Explorer); crash-only
	// plans keep them.
	var ran []string
	if cfg.por && cfg.watchdog == 0 {
		ran = append(ran, "sleep-sets")
	}
	visited := cfg.visited && !faulted
	if visited {
		ran = append(ran, "visited")
	}
	symmetry := cfg.symmetry && !faulted && ec.SymmetryClasses() != nil
	if symmetry {
		ran = append(ran, "symmetry")
	}
	reductionName := "off"
	if len(ran) > 0 {
		reductionName = strings.Join(ran, "+")
	}
	switch {
	case faulted && (cfg.visited || cfg.symmetry):
		fmt.Fprintln(os.Stderr, "locktest: a fault sweep explores without visited-state caching or symmetry reduction; -visited and -symmetry have no effect")
	case cfg.symmetry && !symmetry:
		fmt.Fprintf(os.Stderr, "locktest: %s is not registered id-symmetric (or has no interchangeable role); -symmetry has no effect\n", cfg.algo)
	}
	if cfg.por && cfg.watchdog > 0 {
		fmt.Fprintln(os.Stderr, "locktest: the watchdog breaks the trace invariance sleep sets rely on; -por has no effect")
	}
	fmt.Printf("%s: bounded-exhaustive exploration: n=%d w=%d aborters=%d ≤%d steps, workers=%d, reduction=%s\n",
		cfg.algo, cfg.n, cfg.w, cfg.aborters, cfg.maxSteps, workers, reductionName)
	if faulted {
		fmt.Printf("  fault sweep: crash points %v, watchdog bound %d\n", cfg.crashPoints, cfg.watchdog)
	}
	// The monitor also counts the replays the explorer counted without
	// running them, and why the others ran, which only it reports.
	mon := cfg.mon
	ec.Monitor = mon
	var stopProgress func()
	if cfg.progress {
		stopProgress = startProgress(mon)
	}
	start := time.Now()
	var res rmr.Result
	var runs []rmr.FaultRun
	var err error
	if faulted {
		f := harness.Faults{CrashPoints: cfg.crashPoints, Watchdog: cfg.watchdog}
		if len(cfg.crashPoints) == 0 {
			// Watchdog-only: explore the fault-free schedules under the
			// watchdog without injecting crashes (no victims, no crash plans).
			f.Victims = []int{}
		}
		res, runs, err = harness.ExploreFaults(ec, f)
	} else {
		res, err = harness.Explore(ec)
	}
	elapsed := time.Since(start)
	if stopProgress != nil {
		stopProgress()
	}
	// ErrFaultExplore's promoted Unwrap skips the embedded ErrExplore, so it
	// must be matched before the plain-violation case.
	var fe *rmr.ErrFaultExplore
	if errors.As(err, &fe) {
		dumpFaultViolation(cfg, fe)
		return err
	}
	var ee *rmr.ErrExplore
	if errors.As(err, &ee) {
		dumpViolation(cfg, ee)
		return err
	}
	if err != nil {
		return err
	}
	fmt.Printf("  %d schedules explored, %d pruned, %d cut as equivalent, exhausted=%v\n",
		res.Explored, res.Pruned, res.Equivalent, res.Exhausted)
	if res.VisitedHits > 0 || res.SymmetryCuts > 0 || visited || symmetry {
		fmt.Printf("  cut breakdown: %d visited-state hits, %d symmetry cuts\n", res.VisitedHits, res.SymmetryCuts)
		writeReplays(os.Stdout, mon)
	}
	if res.VisitedSaturated {
		fmt.Println("  visited set saturated: caching degraded to pass-through past the capacity limit")
	}
	if faulted {
		fmt.Printf("  %d fault plans swept (fault-free baseline first)\n", len(runs))
	}
	if secs := elapsed.Seconds(); secs > 0 {
		fmt.Printf("  throughput: %.0f replays/s over %v (replays counted without running included)\n",
			float64(res.Replays())/secs, elapsed.Round(time.Millisecond))
	}
	printDepths(res.Depths)
	if faulted {
		fmt.Println("  mutual exclusion and survivor completion held in every explored schedule of every plan")
	} else {
		fmt.Println("  mutual exclusion and non-aborter completion held in every explored schedule")
	}
	return nil
}

// writeReplays prints the monitor's replays counted without running, by
// what they would have counted, and the replays that ran, by why.
func writeReplays(w io.Writer, mon *rmr.Monitor) {
	hits, prunes, cuts := mon.PredictedOutcomes()
	fmt.Fprintf(w, "  counted without a replay: %d (%d visited-state hits, %d bound prunes, %d blocked picks)\n",
		hits+prunes+cuts, hits, prunes, cuts)
	why := mon.Replayed()
	fmt.Fprintf(w, "  replayed: %d root, %d pushed unpredicted, %d run completions, %d unlearned steps, %d unpredictable steps\n",
		why.Root, why.NoPrediction, why.Completes, why.Unlearned, why.Unpredictable)
}

// dumpFaultViolation replays a violation found under an injected fault plan:
// the plan is reinstalled, the lexmin schedule is driven step for step, and
// the resulting fault attribution is printed alongside the schedule.
func dumpFaultViolation(cfg exhaustiveConfig, fe *rmr.ErrFaultExplore) {
	fmt.Fprintf(os.Stderr, "locktest: property violation under fault plan [%v] on schedule %v\n",
		fe.Plan, fe.Schedule)
	nprocs := cfg.n
	if cfg.aborters > 0 {
		nprocs++
	}
	s := rmr.NewScheduler(nprocs, rmr.ReplayPick(fe.Schedule))
	s.SetFaultPlan(fe.Plan)
	if cfg.watchdog > 0 {
		s.SetWatchdog(cfg.watchdog)
	}
	s.RecordSchedule(true)
	replayErr := harness.ExhaustiveBody(cfg.model, cfg.algo, cfg.w, cfg.n, cfg.aborters)(s, cfg.maxSteps)
	if replayErr == nil {
		fmt.Fprintln(os.Stderr, "locktest: replay did not reproduce the violation (nondeterministic body?)")
		return
	}
	harness.WriteFaultReport(os.Stderr, s.Faults(), fe.Schedule)
	fmt.Fprintf(os.Stderr, "locktest: replayed violation: %v\n", replayErr)
}

// startProgress prints live explored/pruned counters and throughput to
// stderr twice a second until the returned stop function is called.
func startProgress(mon *rmr.Monitor) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(500 * time.Millisecond)
		defer t.Stop()
		start := time.Now()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				explored, pruned, equivalent := mon.Counts()
				visited, symmetry := mon.CutCounts()
				secs := time.Since(start).Seconds()
				total := explored + pruned + equivalent + visited + symmetry
				hits, prunes, cuts := mon.PredictedOutcomes()
				fmt.Fprintf(os.Stderr, "\rexplored %d, pruned %d, equivalent %d, visited %d, symmetry %d; not replayed %d/%d/%d hit/prune/blocked (%.0f replays/s, skipped included)   ",
					explored, pruned, equivalent, visited, symmetry, hits, prunes, cuts, float64(total)/secs)
			}
		}
	}()
	return func() {
		close(done)
		<-finished
		fmt.Fprint(os.Stderr, "\r\033[K")
	}
}

// printDepths renders the explored-schedule depth histogram, coalescing
// empty leading buckets.
func printDepths(depths []int64) {
	var max int64
	for _, c := range depths {
		if c > max {
			max = c
		}
	}
	if max == 0 {
		return
	}
	fmt.Println("  schedule depth histogram (choice-sequence length → count):")
	for d, c := range depths {
		if c == 0 {
			continue
		}
		bar := int(c * 40 / max)
		fmt.Printf("    %3d %8d %s\n", d, c, bars(bar))
	}
}

func bars(n int) string {
	const full = "████████████████████████████████████████"
	if n < 1 {
		return "▏"
	}
	return full[:3*n] // runes are 3 bytes each
}

// dumpViolation replays the violating schedule with a flight-recorder
// tracer and prints the last events leading up to the violation.
func dumpViolation(cfg exhaustiveConfig, ee *rmr.ErrExplore) {
	fmt.Fprintf(os.Stderr, "locktest: property violation on schedule %v\n", ee.Schedule)
	ring, replayErr := harness.ReplayTraced(cfg.model, cfg.algo, cfg.w, cfg.n, cfg.aborters,
		ee.Schedule, cfg.maxSteps, cfg.ringSize)
	if replayErr == nil {
		fmt.Fprintln(os.Stderr, "locktest: replay did not reproduce the violation (nondeterministic body?)")
		return
	}
	events := ring.Events()
	fmt.Fprintf(os.Stderr, "locktest: flight recorder — last %d of %d events before the violation:\n",
		len(events), ring.Total())
	for _, ev := range events {
		fmt.Fprintf(os.Stderr, "  %s\n", ev)
	}
	fmt.Fprintf(os.Stderr, "locktest: replayed violation: %v\n", replayErr)
}
