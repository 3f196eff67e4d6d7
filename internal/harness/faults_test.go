package harness

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"sublock/rmr"
)

func TestParseFaults(t *testing.T) {
	plan, err := ParseFaults("crash:0@4,stall:1@2+15")
	if err != nil {
		t.Fatal(err)
	}
	want := []rmr.FaultSpec{
		{Proc: 0, Kind: rmr.FaultCrash, Op: 4},
		{Proc: 1, Kind: rmr.FaultStall, Op: 2, Delay: 15},
	}
	if !reflect.DeepEqual(plan.Faults, want) {
		t.Fatalf("ParseFaults = %+v, want %+v", plan.Faults, want)
	}
	if plan.CrashOnly() {
		t.Fatal("a plan with a stall reported crash-only")
	}

	for _, empty := range []string{"", "  ", "none"} {
		if p, err := ParseFaults(empty); err != nil || p != nil {
			t.Fatalf("ParseFaults(%q) = %v, %v; want nil plan", empty, p, err)
		}
	}

	for _, bad := range []string{
		"crash0@4",        // missing kind separator
		"restart:0@4",     // restarts need a recovery body
		"crash:x@4",       // bad pid
		"crash:0@0",       // ops are 1-based
		"stall:0@1",       // stall without a window
		"stall:0@1+0",     // empty window
		"crash:0@4,,",     // empty spec
		"explode:0@1+2",   // unknown kind
		"crash:0@4 extra", // trailing junk in op
	} {
		if _, err := ParseFaults(bad); err == nil {
			t.Errorf("ParseFaults(%q) accepted a malformed spec", bad)
		}
	}
}

// CrashOnly must treat a parsed crash-only plan as reduction-safe.
func TestParseFaultsCrashOnlyKeepsReduction(t *testing.T) {
	plan, err := ParseFaults("crash:0@1,crash:1@3")
	if err != nil {
		t.Fatal(err)
	}
	if !plan.CrashOnly() {
		t.Fatal("crash-only plan not recognized as crash-only")
	}
}

func TestParseCrashPoints(t *testing.T) {
	ops, err := ParseCrashPoints(" 1, 3,8 ")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ops, []int{1, 3, 8}) {
		t.Fatalf("ParseCrashPoints = %v, want [1 3 8]", ops)
	}
	if ops, err := ParseCrashPoints(""); err != nil || ops != nil {
		t.Fatalf("ParseCrashPoints(\"\") = %v, %v; want nil", ops, err)
	}
	for _, bad := range []string{"0", "x", "1,-2"} {
		if _, err := ParseCrashPoints(bad); err == nil {
			t.Errorf("ParseCrashPoints(%q) accepted a malformed spec", bad)
		}
	}
}

// TestFaultBodySeededCrash: ExhaustiveBody run under a seeded scheduler with a
// crash plan completes without a starvation report for the victim, and the
// fault is attributed.
func TestFaultBodySeededCrash(t *testing.T) {
	body := ExhaustiveBody(rmr.CC, AlgoTAS, 4, 3, 0)
	s := rmr.NewScheduler(3, rmr.RandomPick(1))
	s.SetFaultPlan(&rmr.FaultPlan{Faults: []rmr.FaultSpec{{Proc: 0, Kind: rmr.FaultCrash, Op: 1}}})
	if err := body(s, 500_000); err != nil {
		t.Fatalf("ExhaustiveBody under a doorway crash: %v", err)
	}
	faults := s.Faults()
	if len(faults) != 1 || faults[0].Kind != rmr.FaultCrash || faults[0].Proc != 0 {
		t.Fatalf("faults = %v, want the injected crash", faults)
	}
}

// TestExploreFaultsSmall: a tiny crash sweep over the TAS lock terminates,
// covers baseline + per-victim plans, and stays clean.
func TestExploreFaultsSmall(t *testing.T) {
	res, runs, err := ExploreFaults(ExploreConfig{
		Model: rmr.CC, Algo: AlgoTAS, W: 4, N: 2,
		MaxSteps: 16, MaxSchedules: 2000, Workers: 2, Reduction: rmr.SleepSets,
	}, Faults{CrashPoints: []int{1, 2}})
	if err != nil {
		t.Fatalf("ExploreFaults: %v", err)
	}
	// Baseline + 2 victims × 2 crash points.
	if len(runs) != 5 {
		t.Fatalf("%d fault runs, want 5", len(runs))
	}
	if runs[0].Plan != nil {
		t.Fatalf("first run's plan = %v, want fault-free baseline", runs[0].Plan)
	}
	if res.Explored == 0 {
		t.Fatal("nothing explored")
	}
}

// TestExploreFaultsWatchdogClean: with a bound a single-passage workload
// cannot legitimately cross, the watchdog-armed crash sweep stays silent.
func TestExploreFaultsWatchdogClean(t *testing.T) {
	res, _, err := ExploreFaults(ExploreConfig{
		Model: rmr.CC, Algo: AlgoTAS, W: 4, N: 2,
		MaxSteps: 16, MaxSchedules: 2000, Workers: 1,
	}, Faults{Watchdog: 3, CrashPoints: []int{1}})
	if err != nil {
		t.Fatalf("ExploreFaults: %v", err)
	}
	if res.Explored == 0 {
		t.Fatal("nothing explored")
	}
}

// TestFaultBodyWatchdogTripReplays: a seeded watchdog violation on a real
// lock (TAS is unfair: bound 1 trips when both competitors pass a waiting
// process) is deterministic and replays step for step from the recorded
// schedule.
func TestFaultBodyWatchdogTripReplays(t *testing.T) {
	body := ExhaustiveBody(rmr.CC, AlgoTAS, 4, 3, 0)
	run := func(pick rmr.PickFunc) (error, *rmr.Scheduler) {
		s := rmr.NewScheduler(3, pick)
		s.SetWatchdog(1)
		return body(s, 1000), s
	}
	// Seed 3 trips the bound (pinned; the schedule is fully deterministic).
	err, _ := run(rmr.RandomPick(3))
	if !errors.Is(err, rmr.ErrStarvation) {
		t.Fatalf("seeded run = %v, want a starvation violation", err)
	}
	var fe *rmr.FaultError
	if !errors.As(err, &fe) || len(fe.Fault.Schedule) == 0 {
		t.Fatalf("violation carries no replay schedule: %v", err)
	}
	err2, _ := run(rmr.RandomPick(3))
	var fe2 *rmr.FaultError
	if !errors.As(err2, &fe2) || !reflect.DeepEqual(fe2.Fault, fe.Fault) {
		t.Fatalf("re-run diverged:\n%+v\n%+v", fe2, fe)
	}
	err3, _ := run(rmr.ReplayPick(fe.Fault.Schedule))
	var fe3 *rmr.FaultError
	if !errors.As(err3, &fe3) || fe3.Fault.Step != fe.Fault.Step || fe3.Fault.Proc != fe.Fault.Proc {
		t.Fatalf("replay = %v, want the same starvation at step %d", err3, fe.Fault.Step)
	}
}

func TestWriteFaultReport(t *testing.T) {
	var b strings.Builder
	WriteFaultReport(&b, []rmr.Fault{{Proc: 1, Kind: rmr.FaultCrash, Op: 2, Step: 7}}, []int{0, 1, 0})
	out := b.String()
	if !strings.Contains(out, "fault:") || !strings.Contains(out, "replay schedule: [0 1 0]") {
		t.Fatalf("report missing fault or schedule:\n%s", out)
	}
	b.Reset()
	WriteFaultReport(&b, nil, nil)
	if !strings.Contains(b.String(), "no faults recorded") {
		t.Fatalf("empty report = %q", b.String())
	}
}
