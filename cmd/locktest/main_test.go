package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
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
	if err := run([]string{"-algo", "paper", "-n", "8", "-seeds", "5", "-aborters", "3"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunDSM(t *testing.T) {
	if err := run([]string{"-algo", "paper", "-n", "6", "-seeds", "5", "-model", "dsm"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunLongLived(t *testing.T) {
	if err := run([]string{"-algo", "paper-longlived-bounded", "-n", "6", "-seeds", "3"}); err != nil {
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
	err := run([]string{"-algo", "mcs", "-aborters", "1", "-n", "4"})
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
	want := fmt.Sprintf("seeds wedged by a crash (step budget %d reached, fault attributed): 2", harness.FaultStepBudget)
	if !strings.Contains(out, want) {
		t.Errorf("fault summary missing %q:\n%s", want, out)
	}
	if got := len(current.Load().Schedule()); got != harness.FaultStepBudget {
		t.Errorf("wedged seed recorded %d steps, want %d", got, harness.FaultStepBudget)
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

// exploreCounts parses the explored/pruned/equivalent summary line of an
// exhaustive run and whether it reported the tree exhausted.
func exploreCounts(t *testing.T, out string) (counts [3]int, exhausted bool) {
	t.Helper()
	m := regexp.MustCompile(`(\d+) schedules explored, (\d+) pruned, (\d+) cut as equivalent, exhausted=(\w+)`).
		FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no exploration summary in output:\n%s", out)
	}
	for i := range counts {
		counts[i], _ = strconv.Atoi(m[i+1])
	}
	return counts, m[4] == "true"
}

// exploreArgs is a small -por exploration of the paper lock with an
// aborter, a tree of about 6,700 replays whose root has three branches.
var exploreArgs = []string{"-exhaustive", "-n", "2", "-aborters", "1", "-exhauststeps", "12", "-por"}

func withArgs(extra ...string) []string {
	return append(append([]string(nil), exploreArgs...), extra...)
}

// TestRunCheckpointResumeChain: a capped -checkpoint run followed by
// -resume runs with the same per-invocation cap must reach exactly the
// uncapped counts.
func TestRunCheckpointResumeChain(t *testing.T) {
	out, err := captureRun(t, withArgs("-exhaustcap", "0", "-workers", "1"))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := exploreCounts(t, out)

	file := filepath.Join(t.TempDir(), "frontier.json")
	args := withArgs("-exhaustcap", "2000", "-workers", "1", "-checkpoint", file)
	for hop := 0; ; hop++ {
		if hop > 20 {
			t.Fatal("resume chain does not terminate")
		}
		out, err := captureRun(t, args)
		if err != nil {
			t.Fatal(err)
		}
		got, exhausted := exploreCounts(t, out)
		if !exhausted {
			if hop == 0 && !strings.Contains(out, "pending subtrees after the replay cap") {
				t.Fatalf("capped run wrote no frontier:\n%s", out)
			}
			args = withArgs("-exhaustcap", "2000", "-workers", "1", "-resume", file, "-checkpoint", file)
			continue
		}
		if hop == 0 {
			t.Fatal("cap did not interrupt the run")
		}
		if got != want {
			t.Errorf("resume chain ended at %v, want uncapped %v", got, want)
		}
		break
	}
}

// TestRunResumeStaleArtifact: an artifact saved under other flags must
// warn and start fresh, reaching the fresh run's counts.
func TestRunResumeStaleArtifact(t *testing.T) {
	file := filepath.Join(t.TempDir(), "frontier.json")
	if _, err := captureRun(t, withArgs("-exhaustcap", "2000", "-workers", "1", "-checkpoint", file)); err != nil {
		t.Fatal(err)
	}
	fresh, err := captureRun(t, []string{"-exhaustive", "-n", "2", "-aborters", "1", "-exhauststeps", "10", "-por",
		"-exhaustcap", "0", "-workers", "1"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := captureRun(t, []string{"-exhaustive", "-n", "2", "-aborters", "1", "-exhauststeps", "10", "-por",
		"-exhaustcap", "0", "-workers", "1", "-resume", file})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "configuration mismatch") || !strings.Contains(out, "starting fresh") {
		t.Errorf("stale artifact did not warn:\n%s", out)
	}
	want, _ := exploreCounts(t, fresh)
	if got, _ := exploreCounts(t, out); got != want {
		t.Errorf("fresh start after stale artifact: %v, want %v", got, want)
	}
}

// TestRunShardPartsSumToWhole: the -shard parts are slices of the root
// checkpoint's frontier, so under -por their counts must sum exactly to
// the unsharded run's, with more parts than root branches. At 14 steps a
// split that gave each root branch an empty sleep seed would over-count.
func TestRunShardPartsSumToWhole(t *testing.T) {
	out, err := captureRun(t, withArgs("-exhauststeps", "14", "-exhaustcap", "0"))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := exploreCounts(t, out)
	var sum [3]int
	for i := 0; i < 4; i++ {
		out, err := captureRun(t, withArgs("-exhauststeps", "14", "-exhaustcap", "0", "-shard", fmt.Sprintf("%d/4", i)))
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		got, exhausted := exploreCounts(t, out)
		if !exhausted {
			t.Errorf("shard %d: part not exhausted", i)
		}
		for k := range sum {
			sum[k] += got[k]
		}
	}
	if sum != want {
		t.Errorf("shard parts sum to %v, want unsharded %v", sum, want)
	}
}

// TestRunShardRejectsResumeAndFaults: a part's checkpoint already is its
// part, and fault sweeps have no frontier to split.
func TestRunShardRejectsResumeAndFaults(t *testing.T) {
	for _, args := range [][]string{
		withArgs("-shard", "0/2", "-resume", filepath.Join(t.TempDir(), "frontier.json")),
		withArgs("-shard", "0/2", "-crash-points", "1"),
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "-shard") {
			t.Errorf("run(%v) err = %v, want a -shard combination error", args, err)
		}
	}
}
