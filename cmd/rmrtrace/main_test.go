package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"sublock/locks"
)

func TestRunTrace(t *testing.T) {
	if err := run([]string{"-n", "3", "-seed", "2", "-max", "10"}, os.Stdout); err != nil {
		t.Fatal(err)
	}
}

func TestRunTraceWithAborters(t *testing.T) {
	if err := run([]string{"-n", "4", "-aborters", "2", "-seed", "5"}, os.Stdout); err != nil {
		t.Fatal(err)
	}
}

func TestRunTraceAllAlgos(t *testing.T) {
	// Every registered lock must trace cleanly — the registry is the list.
	for _, name := range locks.Names() {
		if err := run([]string{"-lock", name, "-n", "3", "-max", "0"}, os.Stdout); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestRunTraceRejectsUnknownLock(t *testing.T) {
	err := run([]string{"-lock", "bogus"}, os.Stdout)
	if err == nil || !strings.Contains(err.Error(), "unknown lock") {
		t.Fatalf("err = %v, want unknown-lock error", err)
	}
}

func TestRunTraceListLocks(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list-locks"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range locks.Names() {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("-list-locks output missing %q", name)
		}
	}
}

// TestRunTraceFaults: a scripted stall traces cleanly and the text report
// attributes the injected fault.
func TestRunTraceFaults(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-lock", "tas", "-n", "3", "-seed", "1", "-max", "0",
		"-faults", "stall:1@2+20"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "injected faults:") || !strings.Contains(out, "stall") {
		t.Errorf("text output missing the fault attribution:\n%s", out)
	}
}

func TestRunTraceFaultCrash(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-lock", "tas", "-n", "3", "-seed", "1", "-max", "0",
		"-faults", "crash:2@1"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "crash") {
		t.Errorf("text output missing the crash attribution:\n%s", buf.String())
	}
}

func TestRunTraceRejectsBadArgs(t *testing.T) {
	if err := run([]string{"-n", "2", "-aborters", "2"}, os.Stdout); err == nil {
		t.Fatal("too many aborters accepted")
	}
	if err := run([]string{"-lock", "mcs", "-aborters", "1", "-n", "3"}, os.Stdout); err == nil {
		t.Fatal("aborting MCS accepted")
	}
	if err := run([]string{"-format", "xml"}, os.Stdout); err == nil {
		t.Fatal("unknown format accepted")
	}
	if err := run([]string{"-faults", "explode:0@1"}, os.Stdout); err == nil {
		t.Fatal("malformed -faults accepted")
	}
}

func TestRunTraceTextReportsStats(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-n", "3", "-seed", "3", "-max", "5"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"trace consistency: OK",
		"rmr stats:",
		"per-phase RMRs",
		"oneshot/head", // the paper lock's labeled regions show up
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q", want)
		}
	}
}

// TestRunTraceCost: -cost prices the run — the text report gains the
// per-process simulated time and the pricing footer, the verdict and the
// value-chain check are unchanged, and a bad model name is rejected.
func TestRunTraceCost(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-n", "3", "-seed", "3", "-max", "5",
		"-cost", "ccnuma", "-cost-seed", "7"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"trace consistency: OK",
		"sim=",
		"priced by cost=ccnuma, cost-seed=7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("priced text output missing %q", want)
		}
	}
	buf.Reset()
	if err := run([]string{"-n", "3", "-cost", "unit"}, &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "priced by cost=") {
		t.Error("unit cost printed a pricing footer")
	}
	if err := run([]string{"-n", "3", "-cost", "bogus"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "ccnuma") {
		t.Errorf("bogus cost err = %v, want error listing known models", err)
	}
}

// TestRunTraceChromeCostDurations: with a cost model the Chrome trace's
// operation spans carry the model's simulated durations, not one tick each.
func TestRunTraceChromeCostDurations(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-n", "3", "-seed", "2", "-format", "chrome",
		"-cost", "dsmremote"}, &buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Dur *int64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v", err)
	}
	var wide bool
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "X" && ev.Dur != nil && *ev.Dur > 1 {
			wide = true
		}
	}
	if !wide {
		t.Error("no span carries a simulated duration > 1 tick under dsmremote pricing")
	}
}

// TestRunTraceChromeFormat: -format=chrome must emit valid Chrome
// trace-event JSON with phase spans, operation spans, and thread names.
func TestRunTraceChromeFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-n", "3", "-seed", "2", "-format", "chrome"}, &buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			TS   *int64 `json:"ts"`
			PID  int    `json:"pid"`
			TID  int    `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("no trace events emitted")
	}
	var spans, meta int
	for _, ev := range trace.TraceEvents {
		switch ev.Ph {
		case "X":
			spans++
			if ev.TS == nil {
				t.Fatalf("complete event %q missing ts", ev.Name)
			}
		case "M":
			meta++
		default:
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
	}
	if spans == 0 {
		t.Error("no complete (X) events")
	}
	if meta == 0 {
		t.Error("no thread-name metadata events")
	}
}

// TestRunTraceJSONLFormat: every line must parse as a JSON object with the
// event schema's core fields.
func TestRunTraceJSONLFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-n", "3", "-seed", "2", "-format", "jsonl"}, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) == 0 {
		t.Fatal("no JSONL output")
	}
	sawPhase, sawLabel := false, false
	for i, line := range lines {
		var ev struct {
			T     int64  `json:"t"`
			Proc  *int   `json:"proc"`
			Op    string `json:"op"`
			Phase string `json:"phase"`
			Label string `json:"label"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d does not parse: %v\n%s", i+1, err, line)
		}
		if ev.Proc == nil || ev.Op == "" {
			t.Fatalf("line %d missing proc/op: %s", i+1, line)
		}
		if ev.Phase != "" {
			sawPhase = true
		}
		if ev.Label != "" {
			sawLabel = true
		}
	}
	if !sawPhase {
		t.Error("no event carried a phase")
	}
	if !sawLabel {
		t.Error("no event carried a label")
	}
}

// TestRunTraceRing: a bounded flight recorder truncates the trace and the
// report must say the value-chain check was skipped.
func TestRunTraceRing(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-n", "4", "-seed", "1", "-ring", "8", "-max", "100"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "trace consistency: skipped") {
		t.Errorf("ring-truncated run did not skip the consistency check:\n%s", out)
	}
}
