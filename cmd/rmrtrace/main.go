// Command rmrtrace records and exports a shared-memory execution trace of a
// lock algorithm under a seeded deterministic schedule: every read, write,
// CAS, F&A and SWAP in linearization order, annotated with the RMR charge,
// the issuing process's passage phase, and the address's region label.
//
// Three output formats are supported. The default text format prints the
// events, validates the trace's per-word value chains (rmr.CheckTrace), and
// ends with the per-process RMR summary and the phase/label counter report.
// -format=jsonl emits one JSON object per event for offline analysis, and
// -format=chrome emits a Chrome trace-event file that loads into
// https://ui.perfetto.dev or chrome://tracing, with one track per process
// showing passage phases as spans and memory operations nested inside them.
//
// -ring N keeps only the last N events (a flight recorder), which bounds
// memory for long schedules at the price of the value-chain check.
//
// -cost NAME prices the run under a deterministic latency model (-cost-seed
// seeds it; see rmr.CostModelNames). Pricing is observe-only — the schedule
// and the RMR charges are unchanged — but every event then carries its
// simulated cost and timestamp: the Chrome trace's spans get real simulated
// durations instead of one tick per charged op, the text report adds
// per-process simulated time, and the summary's latency quantiles are in
// model nanoseconds.
//
// -faults injects a scripted fault plan ("crash:0@4,stall:1@2+15", see
// docs/FAULTS.md) into the schedule: the trace then shows exactly which
// operations a crash abandoned or a stall delayed, and the text report
// ends with the attributed fault log.
//
// Usage:
//
//	rmrtrace [-lock paper] [-n 4] [-w 8] [-seed 1] [-aborters 0] [-max 200]
//	         [-format text|jsonl|chrome] [-o file] [-ring N] [-faults spec]
//	         [-cost model] [-cost-seed S]
//
// The lock is any name in the locks registry (-list-locks enumerates them;
// -algo is a deprecated alias for -lock).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"sublock/internal/harness"
	"sublock/locks"
	"sublock/rmr"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rmrtrace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rmrtrace", flag.ContinueOnError)
	var lock string
	fs.StringVar(&lock, "lock", "paper", "lock to trace: any registered name (see -list-locks)")
	fs.StringVar(&lock, "algo", "paper", "deprecated alias for -lock")
	listLocks := fs.Bool("list-locks", false, "list the registered locks and exit")
	n := fs.Int("n", 4, "number of processes")
	w := fs.Int("w", 8, "tree arity for the paper's algorithms")
	seed := fs.Int64("seed", 1, "schedule seed")
	aborters := fs.Int("aborters", 0, "processes signalled to abort before starting")
	maxPrint := fs.Int("max", 200, "maximum events to print (the summary always covers all)")
	format := fs.String("format", "text", "output format: text, jsonl, or chrome")
	outFile := fs.String("o", "", "write output to `file` instead of stdout")
	ringSize := fs.Int("ring", 0, "keep only the last N events (0 = keep all)")
	faultsSpec := fs.String("faults", "", "inject scripted faults: `kind:pid@op[+delay],...` (crash, stall)")
	costName := fs.String("cost", "", "price the run under this cost `model` (see rmr.CostModelNames); events then carry simulated time")
	costSeed := fs.Int64("cost-seed", 1, "seed for the deterministic cost model")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cost, err := rmr.NewCostModel(*costName, *costSeed)
	if err != nil {
		return err
	}
	plan, err := harness.ParseFaults(*faultsSpec)
	if err != nil {
		return err
	}
	if *listLocks {
		for _, info := range locks.Infos() {
			fmt.Fprintf(out, "  %-24s %s\n", info.Name, info.Summary)
		}
		return nil
	}
	info, ok := locks.Lookup(lock)
	if !ok {
		return &locks.ErrUnknown{Name: lock, Registered: locks.Names()}
	}
	if *aborters >= *n {
		return fmt.Errorf("aborters (%d) must be < n (%d)", *aborters, *n)
	}
	if *aborters > 0 && !info.Abortable {
		return fmt.Errorf("%s is not abortable", lock)
	}
	switch *format {
	case "text", "jsonl", "chrome":
	default:
		return fmt.Errorf("unknown format %q (want text, jsonl, or chrome)", *format)
	}
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}

	s := rmr.NewScheduler(*n, rmr.RandomPick(*seed))
	if plan != nil {
		s.SetFaultPlan(plan)
		s.RecordSchedule(true)
	}
	m := rmr.NewMemory(rmr.CC, *n, nil)
	// -ring bounds memory with a flight recorder; otherwise keep the whole
	// trace so the value-chain check can run.
	var ring *rmr.Ring
	var all []rmr.Event
	if *ringSize > 0 {
		ring = rmr.NewRing(*ringSize)
		m.SetTracer(ring.Record)
	} else {
		m.SetTracer(func(ev rmr.Event) { all = append(all, ev) })
	}
	fn, err := locks.Build(m, lock, *w, *n)
	if err != nil {
		return err
	}
	// The cost model is installed after Build so construction ops stay
	// unpriced, matching the harness and the benchmark matrix; Unit is the
	// default accounting and needs no install.
	if cost != rmr.Unit {
		m.SetCostModel(cost)
	}
	// The stats matrix is sized to the labels the lock interned during
	// construction, so it is built after Build.
	st := rmr.NewStats(m)
	m.SetStats(st)
	// Snapshot initial values of everything allocated during construction
	// so CheckTrace can bind the first event of every address.
	inits := make(map[rmr.Addr]uint64, m.Size())
	for a := 0; a < m.Size(); a++ {
		inits[rmr.Addr(a)] = m.Peek(rmr.Addr(a))
	}

	// A failed run — a stall, or a violation such as
	// rmr.ErrMutualExclusion — has been unwound; with faults scripted, the
	// attributed fault report goes out with the error. A scripted crash
	// may wedge the run, which then stops at the fault budget.
	budget := harness.StepBudget
	if plan != nil {
		budget = harness.FaultStepBudget
	}
	if _, err := harness.Passages(s, m, fn, *aborters, budget); err != nil {
		if plan != nil {
			harness.WriteFaultReport(os.Stderr, s.Faults(), s.Schedule())
		}
		return err
	}

	events, truncated := all, false
	if ring != nil {
		events = ring.Events()
		truncated = ring.Total() > int64(len(events))
	}
	switch *format {
	case "jsonl":
		return rmr.WriteJSONL(out, events, m.Labels())
	case "chrome":
		return rmr.WriteChromeTrace(out, events, m.Labels())
	}
	return report(out, m, st, events, inits, reportConfig{
		algo: lock, n: *n, seed: *seed, aborters: *aborters,
		maxPrint: *maxPrint, truncated: truncated, faults: s.Faults(),
		priced: cost != rmr.Unit, costSeed: *costSeed,
	})
}

type reportConfig struct {
	algo      string
	n         int
	seed      int64
	aborters  int
	maxPrint  int
	truncated bool
	faults    []rmr.Fault
	priced    bool
	costSeed  int64
}

func report(out io.Writer, m *rmr.Memory, st *rmr.Stats, events []rmr.Event, inits map[rmr.Addr]uint64, cfg reportConfig) error {
	fmt.Fprintf(out, "%s, N=%d, seed=%d, aborters=%d: %d events\n\n",
		cfg.algo, cfg.n, cfg.seed, cfg.aborters, len(events))
	for i, ev := range events {
		if cfg.maxPrint >= 0 && i >= cfg.maxPrint {
			fmt.Fprintf(out, "  … %d more events (raise -max)\n", len(events)-i)
			break
		}
		fmt.Fprintf(out, "  %s\n", ev)
	}

	if cfg.truncated {
		fmt.Fprintf(out, "\ntrace consistency: skipped (ring dropped early events)\n")
	} else {
		if err := rmr.CheckTrace(events, inits); err != nil {
			return fmt.Errorf("trace inconsistent: %w", err)
		}
		fmt.Fprintf(out, "\ntrace consistency: OK (per-word value chains verified)\n")
	}
	fmt.Fprintf(out, "per-process RMRs (* = charged events):\n")
	for i := 0; i < cfg.n; i++ {
		var reads, updates int64
		for _, ev := range events {
			if ev.Proc == i && ev.RMR {
				if ev.Op == rmr.OpRead {
					reads++
				} else {
					updates++
				}
			}
		}
		fmt.Fprintf(out, "  p%-2d total=%-4d reads=%-4d updates=%d",
			i, m.Proc(i).RMRs(), reads, updates)
		if cfg.priced {
			fmt.Fprintf(out, " sim=%dns", m.Proc(i).SimTime())
		}
		fmt.Fprintf(out, "\n")
	}
	if cfg.priced {
		fmt.Fprintf(out, "  (simulated time priced by cost=%s, cost-seed=%d; observe-only)\n",
			m.CostModel().Name(), cfg.costSeed)
	}
	if len(cfg.faults) > 0 {
		fmt.Fprintf(out, "\ninjected faults:\n")
		for _, flt := range cfg.faults {
			fmt.Fprintf(out, "  %v\n", flt)
		}
	}
	fmt.Fprintf(out, "\n")
	return st.Snapshot().WriteText(out)
}
