package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"sublock/internal/harness"
	"sublock/locks"
	"sublock/rmr"
)

func TestRunDefaults(t *testing.T) {
	if err := run([]string{"-seeds", "5", "-n", "8"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithAborters(t *testing.T) {
	if err := run([]string{"-lock", "paper", "-n", "8", "-seeds", "5", "-aborters", "3"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunDSM(t *testing.T) {
	if err := run([]string{"-lock", "paper", "-n", "6", "-seeds", "5", "-model", "dsm"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunLongLived(t *testing.T) {
	if err := run([]string{"-lock", "paper-longlived-bounded", "-n", "6", "-seeds", "3"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunRejectsUnknownLock: -lock bogus must fail (the CLI exits non-zero
// on any run error) with the registry's sorted name list in the message —
// never a nil-factory panic.
func TestRunRejectsUnknownLock(t *testing.T) {
	err := run([]string{"-lock", "bogus"})
	if err == nil {
		t.Fatal("unknown lock accepted")
	}
	var eu *locks.ErrUnknown
	if !errors.As(err, &eu) {
		t.Fatalf("err = %T (%v), want *locks.ErrUnknown", err, err)
	}
	if !sort.StringsAreSorted(eu.Registered) {
		t.Errorf("registered list not sorted: %v", eu.Registered)
	}
	for _, name := range locks.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list registered lock %q", err, name)
		}
	}
}

func TestRunLockFlag(t *testing.T) {
	if err := run([]string{"-lock", "scott", "-n", "6", "-seeds", "3"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunListLocks(t *testing.T) {
	if err := run([]string{"-list-locks"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsDSMForCCOnlyLock(t *testing.T) {
	err := run([]string{"-lock", "paper-longlived", "-model", "dsm", "-n", "4", "-seeds", "1"})
	if err == nil || !strings.Contains(err.Error(), "CC memory model") {
		t.Fatalf("err = %v, want CC-only error", err)
	}
}

func TestRunRejectsBadModel(t *testing.T) {
	if err := run([]string{"-model", "numa"}); err == nil {
		t.Fatal("bad model accepted")
	}
}

func TestRunRejectsTooManyAborters(t *testing.T) {
	err := run([]string{"-n", "4", "-aborters", "4"})
	if err == nil || !strings.Contains(err.Error(), "aborters") {
		t.Fatalf("err = %v, want aborters error", err)
	}
}

func TestRunRejectsAbortingMCS(t *testing.T) {
	err := run([]string{"-lock", "mcs", "-aborters", "1", "-n", "4"})
	if err == nil || !strings.Contains(err.Error(), "not abortable") {
		t.Fatalf("err = %v, want not-abortable error", err)
	}
}

func TestExploreDetectsStall(t *testing.T) {
	// A tiny step budget must surface as a stall error, not a hang.
	var current atomic.Pointer[rmr.Scheduler]
	err := runSeeded(seededConfig{model: rmr.CC, algo: harness.AlgoPaper, w: 4, n: 8, seeds: 1, maxSteps: 3}, &current)
	if !errors.Is(err, rmr.ErrStepLimit) {
		t.Fatalf("err = %v, want a step-limit stall", err)
	}
	if current.Load() == nil {
		t.Error("in-flight scheduler not published for the deadline dump")
	}
}

// TestRunSeededFaults: a scripted crash plan over the seeded schedules
// completes with the fault attributed on every seed.
func TestRunSeededFaults(t *testing.T) {
	out, err := captureRun(t, []string{"-lock", "tas", "-n", "4", "-seeds", "5", "-faults", "crash:0@2"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "under faults: OK") || !strings.Contains(out, "faults fired: 5") {
		t.Errorf("fault summary missing:\n%s", out)
	}
}

// TestWedgedSeedReportsFaultBudget: with no step budget given, a seeded
// run under a fault plan bounds each seed by harness.FaultStepBudget, so a
// seed that a crash wedges stops there, its recorded schedule that long
// rather than harness.StepBudget steps, and the summary names the budget.
func TestWedgedSeedReportsFaultBudget(t *testing.T) {
	plan, err := harness.ParseFaults("crash:0@2")
	if err != nil {
		t.Fatal(err)
	}
	var current atomic.Pointer[rmr.Scheduler]
	out, err := capture(t, func() error {
		return runSeeded(seededConfig{model: rmr.CC, algo: harness.AlgoPaper, w: 8, n: 8, seeds: 2, plan: plan}, &current)
	})
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	want := fmt.Sprintf("seeds wedged by a crash (step budget %d reached, fault attributed): 2", harness.FaultStepBudget(8))
	if !strings.Contains(out, want) {
		t.Errorf("fault summary missing %q:\n%s", want, out)
	}
	if got := len(current.Load().Schedule()); got != harness.FaultStepBudget(8) {
		t.Errorf("wedged seed recorded %d steps, want %d", got, harness.FaultStepBudget(8))
	}
}

// TestFaultBudgetGrowsWithN: the fault-mode default budget grows with n,
// so a fault that wedges nothing does not fail a large run on the budget.
// paper-longlived-bounded needs the most steps of the registered locks, and
// more than 300,000 for some seeds at n = 256.
func TestFaultBudgetGrowsWithN(t *testing.T) {
	out, err := captureRun(t, []string{"-lock", "paper-longlived-bounded", "-n", "256", "-seeds", "3", "-faults", "stall:0@2+2"})
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
}

// TestRunSeededWatchdog: a generous watchdog bound stays silent over the
// seeded schedules.
func TestRunSeededWatchdog(t *testing.T) {
	if err := run([]string{"-lock", "tas", "-n", "3", "-seeds", "5", "-watchdog", "8"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunSeededWatchdogTrips: TAS is unfair, so a bound of 1 overtake at
// n=3 must trip on some seed and exit with a starvation error.
func TestRunSeededWatchdogTrips(t *testing.T) {
	err := run([]string{"-lock", "tas", "-n", "3", "-seeds", "10", "-maxsteps", "1000", "-watchdog", "1"})
	if !errors.Is(err, rmr.ErrStarvation) {
		t.Fatalf("err = %v, want a starvation violation", err)
	}
}

func TestRunExhaustiveCrashPoints(t *testing.T) {
	out, err := captureRun(t, []string{"-exhaustive", "-lock", "tas", "-n", "2",
		"-exhauststeps", "16", "-exhaustcap", "5000", "-crash-points", "1,2"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "fault plans swept") {
		t.Errorf("fault sweep summary missing:\n%s", out)
	}
}

func TestRunRejectsFaultsWithExhaustive(t *testing.T) {
	if err := run([]string{"-exhaustive", "-faults", "crash:0@1"}); err == nil {
		t.Fatal("-faults with -exhaustive accepted")
	}
}

func TestRunRejectsCrashPointsWithoutExhaustive(t *testing.T) {
	if err := run([]string{"-crash-points", "1,2"}); err == nil {
		t.Fatal("-crash-points without -exhaustive accepted")
	}
}

func TestRunRejectsMalformedFaults(t *testing.T) {
	if err := run([]string{"-faults", "explode:0@1"}); err == nil {
		t.Fatal("malformed -faults accepted")
	}
}

func TestRunExhaustive(t *testing.T) {
	if err := run([]string{"-exhaustive", "-n", "2", "-exhauststeps", "18", "-exhaustcap", "30000"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunExhaustiveWithAborter(t *testing.T) {
	if err := run([]string{"-exhaustive", "-n", "2", "-aborters", "1", "-exhauststeps", "18", "-exhaustcap", "20000"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunExhaustiveParallel(t *testing.T) {
	if err := run([]string{"-exhaustive", "-n", "2", "-exhauststeps", "18", "-exhaustcap", "30000", "-workers", "4"}); err != nil {
		t.Fatal(err)
	}
}

// captureRun runs the CLI with stdout and stderr redirected to a pipe and
// returns what it printed, so tests can assert on the run header and on
// warnings.
func captureRun(t *testing.T, args []string) (string, error) {
	t.Helper()
	return capture(t, func() error { return run(args) })
}

// capture runs f with stdout and stderr redirected and returns what it
// printed.
func capture(t *testing.T, f func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = w, w
	defer func() { os.Stdout, os.Stderr = oldOut, oldErr }()
	out := make(chan []byte)
	go func() {
		data, _ := io.ReadAll(r)
		out <- data
	}()
	runErr := f()
	w.Close()
	return string(<-out), runErr
}

// TestRunCostSummary: -cost prices the seeded runs and reports the accrued
// simulated time without changing the verdict.
func TestRunCostSummary(t *testing.T) {
	out, err := captureRun(t, []string{"-lock", "paper", "-n", "4", "-seeds", "3",
		"-cost", "ccnuma", "-cost-seed", "7"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "simulated time (cost=ccnuma, cost-seed=7)") {
		t.Errorf("simulated-time summary missing:\n%s", out)
	}
	if !strings.Contains(out, "mutual exclusion held") {
		t.Errorf("verdict missing:\n%s", out)
	}
}

// TestRunCostUnitSilent: the unit model is the default accounting — no
// extra summary line.
func TestRunCostUnitSilent(t *testing.T) {
	out, err := captureRun(t, []string{"-lock", "tas", "-n", "4", "-seeds", "2", "-cost", "unit"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "simulated time") {
		t.Errorf("unit cost printed a simulated-time summary:\n%s", out)
	}
}

// TestRunCostRejectsOtherModes: -cost is a seeded-mode feature.
func TestRunCostRejectsOtherModes(t *testing.T) {
	for _, args := range [][]string{
		{"-cost", "ccnuma", "-exhaustive", "-n", "2"},
		{"-cost", "ccnuma", "-faults", "crash:0@2", "-n", "4"},
		{"-cost", "ccnuma", "-watchdog", "8", "-n", "4"},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "-cost prices plain seeded runs") {
			t.Errorf("run(%v) err = %v, want seeded-mode error", args, err)
		}
	}
	if err := run([]string{"-cost", "bogus", "-n", "4"}); err == nil || !strings.Contains(err.Error(), "ccnuma") {
		t.Errorf("bogus cost err = %v, want error listing known models", err)
	}
}

func TestRunExhaustivePOR(t *testing.T) {
	out, err := captureRun(t, []string{"-exhaustive", "-n", "2", "-exhauststeps", "18", "-exhaustcap", "30000", "-por", "-workers", "2"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "reduction=sleep-sets") {
		t.Errorf("header does not report the reduction:\n%s", out)
	}
	if !strings.Contains(out, "cut as equivalent") {
		t.Errorf("summary does not report equivalent cuts:\n%s", out)
	}
}

// TestRunExhaustiveWorkersDefault: -workers defaults to 0, which the run
// header must report resolved to GOMAXPROCS, never as workers=0.
func TestRunExhaustiveWorkersDefault(t *testing.T) {
	out, err := captureRun(t, []string{"-exhaustive", "-n", "2", "-exhauststeps", "16", "-exhaustcap", "10000"})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("workers=%d,", runtime.GOMAXPROCS(0))
	if !strings.Contains(out, want) {
		t.Errorf("header does not resolve default workers to %q:\n%s", want, out)
	}
	if strings.Contains(out, "workers=0") {
		t.Errorf("header reports unresolved workers=0:\n%s", out)
	}
}

func TestRunExhaustiveProgress(t *testing.T) {
	if err := run([]string{"-exhaustive", "-n", "2", "-exhauststeps", "16", "-progress"}); err != nil {
		t.Fatal(err)
	}
}

func TestBars(t *testing.T) {
	if got := bars(0); got != "▏" {
		t.Errorf("bars(0) = %q", got)
	}
	if got := bars(40); got != strings.Repeat("█", 40) {
		t.Errorf("bars(40) = %q", got)
	}
}

// TestExhaustiveDeadlineReportsCounts: an -exhaustive run that hits its
// -deadline exits 3 and prints how far the exploration got: its replays
// by outcome, the deepest one, and why the replays that ran were run.
// The deadline exits the process, so the run is a child test binary.
func TestExhaustiveDeadlineReportsCounts(t *testing.T) {
	if args := os.Getenv("LOCKTEST_DEADLINE_ARGS"); args != "" {
		if err := run(strings.Fields(args)); err != nil {
			fmt.Fprintln(os.Stderr, "locktest:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestExhaustiveDeadlineReportsCounts$")
	cmd.Env = append(os.Environ(), "LOCKTEST_DEADLINE_ARGS=-exhaustive -lock tas -n 3 -exhauststeps 200 -por -visited -symmetry -workers 1 -exhaustcap 0 -deadline 1s")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 3 {
		t.Fatalf("run ended with %v, want exit status 3; stderr:\n%s", err, stderr.String())
	}
	out := stderr.String()
	var explored, pruned, equivalent, visited, symmetry, deepest int
	var counted, hits, prunes, cuts int
	var root, unpredicted, completes, unlearned, unpredictable int
	for _, line := range []struct {
		format string
		args   []any
	}{
		{"locktest: deadline 1s exceeded\n", nil},
		{"  so far: %d schedules explored, %d pruned, %d cut as equivalent, %d visited-state hits, %d symmetry cuts; deepest replay %d steps\n",
			[]any{&explored, &pruned, &equivalent, &visited, &symmetry, &deepest}},
		{"  counted without a replay: %d (%d visited-state hits, %d bound prunes, %d blocked picks)\n", []any{&counted, &hits, &prunes, &cuts}},
		{"  replayed: %d root, %d pushed unpredicted, %d run completions, %d unlearned steps, %d unpredictable steps\n",
			[]any{&root, &unpredicted, &completes, &unlearned, &unpredictable}},
	} {
		n, err := fmt.Sscanf(out, line.format, line.args...)
		if err != nil || n != len(line.args) {
			t.Fatalf("stderr does not go on with %q (%v):\n%s", line.format, err, stderr.String())
		}
		out = out[strings.Index(out, "\n")+1:]
	}
	if explored == 0 || visited == 0 || deepest == 0 || root != 1 || counted != hits+prunes+cuts || counted == 0 {
		t.Errorf("counts on expiry: explored %d, visited hits %d, deepest %d, root replays %d, counted without a replay %d; want all nonzero, one root:\n%s",
			explored, visited, deepest, root, counted, stderr.String())
	}
}
