// Command locktest stress-tests and schedule-explores the simulated lock
// algorithms: it runs one passage per process under many seeded random
// interleavings, checking mutual exclusion and termination, with optional
// abort injection — the E8 (Theorem 2 properties) entry point.
//
// Usage:
//
//	locktest [-lock paper] [-n 16] [-w 8] [-seeds 100] [-aborters 0] [-model cc]
//
// The lock is any name in the locks registry (-list-locks enumerates them;
// -algo is a deprecated alias for -lock).
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
// with -workers 1 it visits schedules in lexicographic order. -checkpoint
// FILE saves the pending frontier when -exhaustcap interrupts the search,
// and -resume FILE continues from a saved artifact — the deep-explore CI
// job chains these across pushes, validating the artifact version and
// configuration (a stale artifact warns and starts fresh). -shard i/n
// splits the checkpoint of one root replay into n frontier slices and runs
// slice i; a shard's merge is exact under sleep sets, so the parts' counts
// sum to the unsharded run's. It does not combine with -resume (a part's
// own -checkpoint artifact already is its part) or with fault sweeps.
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
	"os"
	"runtime"
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
	fs.StringVar(&lock, "algo", "paper", "deprecated alias for -lock")
	listLocks := fs.Bool("list-locks", false, "list the registered locks and exit")
	n := fs.Int("n", 16, "number of processes")
	w := fs.Int("w", 8, "tree arity for the paper's algorithms")
	seeds := fs.Int("seeds", 100, "number of seeded schedules to explore")
	aborters := fs.Int("aborters", 0, "processes [0, k) that receive the abort signal: seeded runs signal them before they start, -exhaustive from a dedicated signal process")
	model := fs.String("model", "cc", "memory model: cc or dsm")
	maxSteps := fs.Int("maxsteps", 0, fmt.Sprintf("schedule step budget per seed (0: %d, or %d under -faults or -watchdog)",
		harness.StepBudget, harness.FaultStepBudget))
	exhaustive := fs.Bool("exhaustive", false, "bounded-exhaustive exploration instead of seeded sampling (use small -n)")
	exhaustSteps := fs.Int("exhauststeps", 24, "schedule length bound for -exhaustive")
	exhaustCap := fs.Int("exhaustcap", 200000, "schedule cap for -exhaustive (0 = none); with -resume, replays beyond the artifact's")
	workers := fs.Int("workers", 0, "parallel exploration workers for -exhaustive (0 = GOMAXPROCS)")
	por := fs.Bool("por", false, "partial-order reduction for -exhaustive (sleep sets; prunes equivalent interleavings)")
	visited := fs.Bool("visited", false, "state-hash visited caching for -exhaustive (cuts replays that re-converge on an explored state)")
	symmetry := fs.Bool("symmetry", false, "process-id symmetry reduction for -exhaustive (id-symmetric locks only; see locks registry)")
	checkpointFile := fs.String("checkpoint", "", "write the exploration frontier checkpoint to this `file` (-exhaustive)")
	resumeFile := fs.String("resume", "", "resume -exhaustive from this checkpoint `file`; a missing or invalid artifact warns and starts fresh")
	shardSpec := fs.String("shard", "", "run part `i/n` of a split root checkpoint (-exhaustive): a shard is a frontier slice whose merge is exact under sleep sets")
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
	// the fault report and replay schedule of whatever run was stuck.
	var current atomic.Pointer[rmr.Scheduler]
	if *deadline > 0 {
		timer := time.AfterFunc(*deadline, func() {
			fmt.Fprintf(os.Stderr, "locktest: deadline %v exceeded\n", *deadline)
			if s := current.Load(); s != nil {
				harness.WriteFaultReport(os.Stderr, s.Faults(), s.Schedule())
			}
			os.Exit(3)
		})
		defer timer.Stop()
	}

	shard, shardCount, err := parseShard(*shardSpec)
	if err != nil {
		return err
	}
	if (*checkpointFile != "" || *resumeFile != "" || shardCount > 0) && !*exhaustive {
		return fmt.Errorf("-checkpoint/-resume/-shard apply to -exhaustive runs")
	}
	if (*checkpointFile != "" || *resumeFile != "" || shardCount > 0) && (points != nil || *watchdog > 0) {
		return fmt.Errorf("-checkpoint/-resume/-shard do not combine with fault sweeps (-crash-points, -watchdog)")
	}
	if shardCount > 0 && *resumeFile != "" {
		return fmt.Errorf("-shard does not combine with -resume: a part's checkpoint already is its part")
	}
	if *exhaustive {
		return runExhaustive(exhaustiveConfig{
			model: mdl, algo: harness.Algo(lock), w: *w, n: *n, aborters: *aborters,
			maxSteps: *exhaustSteps, cap: *exhaustCap, workers: *workers, por: *por,
			visited: *visited, symmetry: *symmetry,
			shard: shard, shardCount: shardCount,
			checkpointFile: *checkpointFile, resumeFile: *resumeFile,
			progress: *progress, ringSize: *ringSize,
			crashPoints: points, watchdog: *watchdog,
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
// maxSteps selects harness.StepBudget, or harness.FaultStepBudget under a
// plan or the watchdog.
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
			budget = harness.FaultStepBudget
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
	model          rmr.Model
	algo           harness.Algo
	w              int
	n              int
	aborters       int
	maxSteps       int
	cap            int
	workers        int
	por            bool
	visited        bool
	symmetry       bool
	shard          int
	shardCount     int
	checkpointFile string
	resumeFile     string
	progress       bool
	ringSize       int
	crashPoints    []int
	watchdog       int
}

// parseShard parses the -shard "i/n" spec; an empty spec is unsharded.
func parseShard(spec string) (shard, count int, err error) {
	if spec == "" {
		return 0, 0, nil
	}
	if _, err := fmt.Sscanf(spec, "%d/%d", &shard, &count); err != nil {
		return 0, 0, fmt.Errorf("invalid -shard %q: want i/n", spec)
	}
	if count < 1 || shard < 0 || shard >= count {
		return 0, 0, fmt.Errorf("invalid -shard %q: want 0 <= i < n", spec)
	}
	return shard, count, nil
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
	reductionName := "off"
	if cfg.por {
		reduction = rmr.SleepSets
		reductionName = "sleep-sets"
	}
	if cfg.visited {
		reductionName += "+visited"
	}
	if cfg.symmetry {
		reductionName += "+symmetry"
	}
	faulted := len(cfg.crashPoints) > 0 || cfg.watchdog > 0
	if faulted && (cfg.por || cfg.visited || cfg.symmetry) {
		reductionName += " (forced off by fault sweep)"
	}
	ec := harness.ExploreConfig{
		Model: cfg.model, Algo: cfg.algo, W: cfg.w, N: cfg.n, Aborters: cfg.aborters,
		MaxSteps: cfg.maxSteps, MaxSchedules: cfg.cap, Workers: workers, Reduction: reduction,
		Visited: cfg.visited, Symmetry: cfg.symmetry,
	}
	if cfg.symmetry && !faulted && ec.SymmetryClasses() == nil {
		fmt.Fprintf(os.Stderr, "locktest: %s is not registered id-symmetric (or has no interchangeable role); -symmetry has no effect\n", cfg.algo)
	}
	fmt.Printf("%s: bounded-exhaustive exploration: n=%d w=%d aborters=%d ≤%d steps, workers=%d, reduction=%s\n",
		cfg.algo, cfg.n, cfg.w, cfg.aborters, cfg.maxSteps, workers, reductionName)
	if cfg.shardCount > 0 {
		fmt.Printf("  shard %d of %d (frontier slice of the root checkpoint; counts cover this part only)\n",
			cfg.shard, cfg.shardCount)
	}
	if faulted {
		fmt.Printf("  fault sweep: crash points %v, watchdog bound %d\n", cfg.crashPoints, cfg.watchdog)
	}
	// The monitor also counts the visited hits the explorer predicted and
	// counted without replaying them, which only it reports.
	mon := &rmr.Monitor{}
	ec.Monitor = mon
	var stopProgress func()
	if cfg.progress {
		stopProgress = startProgress(mon)
	}
	start := time.Now()
	var res rmr.Result
	var ck *rmr.Checkpoint
	var runs []rmr.FaultRun
	var err error
	switch {
	case faulted:
		f := harness.Faults{CrashPoints: cfg.crashPoints, Watchdog: cfg.watchdog}
		if len(cfg.crashPoints) == 0 {
			// Watchdog-only: explore the fault-free schedules under the
			// watchdog without injecting crashes (no victims, no crash plans).
			f.Victims = []int{}
		}
		res, runs, err = harness.ExploreFaults(ec, f)
	case cfg.shardCount > 0:
		res, ck, err = exploreShard(ec, cfg.shard, cfg.shardCount)
	case cfg.checkpointFile != "" || cfg.resumeFile != "":
		resume := loadCheckpoint(cfg.resumeFile)
		rc := ec
		if resume != nil && rc.MaxSchedules > 0 {
			// -exhaustcap budgets this invocation; the explorer's cap
			// counts the whole chain, so a fixed cap would resume nothing.
			rc.MaxSchedules += resume.Partial.Replays()
		}
		res, ck, err = harness.ExploreCheckpoint(rc, resume)
		if resume != nil && (errors.Is(err, rmr.ErrCheckpointConfig) || errors.Is(err, rmr.ErrCheckpointVersion)) {
			// Cache restores are best-effort: a stale artifact (changed
			// flags, changed format) starts a fresh exploration instead of
			// failing the job.
			fmt.Fprintf(os.Stderr, "locktest: resume: %v; starting fresh\n", err)
			res, ck, err = harness.ExploreCheckpoint(ec, nil)
		}
	default:
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
	if res.VisitedHits > 0 || res.SymmetryCuts > 0 || cfg.visited || cfg.symmetry {
		fmt.Printf("  cut breakdown: %d visited-state hits (%d predicted, counted without a replay), %d symmetry cuts\n",
			res.VisitedHits, mon.Predicted(), res.SymmetryCuts)
	}
	if res.VisitedSaturated {
		fmt.Println("  visited set saturated: caching degraded to pass-through past the capacity limit")
	}
	if ck != nil {
		if err := writeCheckpoint(cfg.checkpointFile, ck); err != nil {
			return err
		}
	}
	if faulted {
		fmt.Printf("  %d fault plans swept (fault-free baseline first)\n", len(runs))
	}
	if secs := elapsed.Seconds(); secs > 0 {
		fmt.Printf("  throughput: %.0f replays/s over %v (predicted visited hits count as replays)\n",
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

// exploreShard runs part shard of count: one replay of the root schedule at
// one worker yields a checkpoint whose frontier, split count ways, holds
// every unexplored subtree; part shard then resumes under ec's own knobs.
func exploreShard(ec harness.ExploreConfig, shard, count int) (rmr.Result, *rmr.Checkpoint, error) {
	root := ec
	root.Workers, root.MaxSchedules, root.Monitor = 1, 1, nil
	_, ck, err := harness.ExploreCheckpoint(root, nil)
	if err != nil {
		return rmr.Result{}, nil, err
	}
	return harness.ExploreCheckpoint(ec, ck.Split(count)[shard])
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

// loadCheckpoint reads a resume artifact. Cache restores in CI are
// best-effort — a missing or corrupt artifact warns and starts fresh
// rather than failing the job.
func loadCheckpoint(file string) *rmr.Checkpoint {
	if file == "" {
		return nil
	}
	data, err := os.ReadFile(file)
	if err != nil {
		fmt.Fprintf(os.Stderr, "locktest: resume: %v; starting fresh\n", err)
		return nil
	}
	ck, err := rmr.DecodeCheckpoint(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "locktest: resume: %v; starting fresh\n", err)
		return nil
	}
	fmt.Printf("  resuming from %s: %d prior replays, %d pending subtrees, complete=%v\n",
		file, ck.Partial.Replays(), len(ck.Frontier), ck.Complete)
	return ck
}

// writeCheckpoint reports the post-run frontier state and serializes it to
// file; an empty name (resume-only run) just reports.
func writeCheckpoint(file string, ck *rmr.Checkpoint) error {
	if ck.Complete {
		fmt.Println("  exploration complete: checkpoint closed (no pending frontier)")
	} else {
		fmt.Printf("  checkpoint: %d pending subtrees after the replay cap\n", len(ck.Frontier))
	}
	if file == "" {
		return nil
	}
	data, err := ck.Encode()
	if err != nil {
		return err
	}
	if err := os.WriteFile(file, data, 0o644); err != nil {
		return fmt.Errorf("write checkpoint: %w", err)
	}
	fmt.Printf("  checkpoint written to %s\n", file)
	return nil
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
				fmt.Fprintf(os.Stderr, "\rexplored %d, pruned %d, equivalent %d, visited %d (%d predicted), symmetry %d (%.0f replays/s, predicted hits included)   ",
					explored, pruned, equivalent, visited, mon.Predicted(), symmetry, float64(total)/secs)
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
