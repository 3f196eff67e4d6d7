package rmr

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"sublock/internal/promtext"
)

// --- misuse hardening -------------------------------------------------------

// mustPanicInSchedule runs fn on a scheduled process and asserts it panics
// with a message containing want.
func mustPanicInSchedule(t *testing.T, m *Memory, s *Scheduler, want string, fn func()) {
	t.Helper()
	var recovered any
	p := m.Proc(0)
	a := m.Alloc(0)
	s.Go(func() {
		p.Read(a) // take at least one step so the schedule is live
		func() {
			defer func() { recovered = recover() }()
			fn()
		}()
		p.Read(a)
	})
	if err := s.Run(1000); err != nil {
		t.Fatal(err)
	}
	msg, ok := recovered.(string)
	if !ok || !strings.Contains(msg, want) {
		t.Fatalf("recovered %v, want panic containing %q", recovered, want)
	}
}

func TestSetTracerMidSchedulePanics(t *testing.T) {
	s := NewScheduler(1, RoundRobinPick())
	m := NewMemory(CC, 1, s)
	mustPanicInSchedule(t, m, s, "mid-schedule", func() {
		m.SetTracer(func(Event) {})
	})
}

func TestSetStatsMidSchedulePanics(t *testing.T) {
	s := NewScheduler(1, RoundRobinPick())
	m := NewMemory(CC, 1, s)
	st := NewStats(m)
	mustPanicInSchedule(t, m, s, "mid-schedule", func() {
		m.SetStats(st)
	})
}

func TestSetGateMidSchedulePanics(t *testing.T) {
	s := NewScheduler(1, RoundRobinPick())
	m := NewMemory(CC, 1, s)
	mustPanicInSchedule(t, m, s, "mid-schedule", func() {
		m.SetGate(nil)
	})
}

func TestSetStatsWrongMemoryPanics(t *testing.T) {
	m1 := NewMemory(CC, 1, nil)
	m2 := NewMemory(CC, 1, nil)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("SetStats accepted a collector built for another memory")
		}
	}()
	m1.SetStats(NewStats(m2))
}

func TestObserverInstallBetweenSchedules(t *testing.T) {
	// Installing between Run calls (scheduler quiescent) is legal.
	s := NewScheduler(1, RoundRobinPick())
	m := NewMemory(CC, 1, s)
	a := m.Alloc(0)
	p := m.Proc(0)
	s.Go(func() { p.Write(a, 1) })
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	var events []Event
	m.SetTracer(func(ev Event) { events = append(events, ev) })
	s.Go(func() { p.Write(a, 2) })
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].New != 2 {
		t.Fatalf("events = %v, want the single second-schedule write", events)
	}
}

// --- golden formatting ------------------------------------------------------

func TestPhaseStringGolden(t *testing.T) {
	for ph, want := range map[Phase]string{
		PhaseIdle:    "idle",
		PhaseDoorway: "doorway",
		PhaseWaiting: "waiting",
		PhaseCS:      "cs",
		PhaseExit:    "exit",
		PhaseAbort:   "abort",
		Phase(42):    "Phase(42)",
	} {
		if got := ph.String(); got != want {
			t.Errorf("Phase(%d).String() = %q, want %q", int32(ph), got, want)
		}
	}
}

func TestEventStringGolden(t *testing.T) {
	for _, tc := range []struct {
		ev   Event
		want string
	}{
		{
			Event{Time: 12, Proc: 3, Op: OpFAA, Addr: 7, Old: 5, New: 6, OK: true, RMR: true, Phase: PhaseDoorway},
			"[   12] p3  faa   @7    5 → 6 (rmr, doorway)",
		},
		{
			Event{Time: 2, Proc: 0, Op: OpCAS, Addr: 11, Old: 4, New: 4, OK: false, Phase: PhaseWaiting},
			"[    2] p0  cas   @11   4 → 4 (failed) (waiting)",
		},
		{
			Event{Time: 1, Proc: 9, Op: OpRead, Addr: 0, Old: 0, New: 0, OK: true},
			"[    1] p9  read  @0    0 → 0 (idle)",
		},
		{
			Event{Time: 77, Proc: 2, Op: OpPhase, Addr: -1, Old: uint64(PhaseIdle), New: uint64(PhaseDoorway), OK: true},
			"[   77] p2  phase idle → doorway",
		},
	} {
		if got := tc.ev.String(); got != tc.want {
			t.Errorf("Event.String() = %q, want %q", got, tc.want)
		}
	}
}

// --- CheckTrace and OpPhase -------------------------------------------------

func TestCheckTraceSkipsPhaseEvents(t *testing.T) {
	events := []Event{
		{Proc: 0, Op: OpPhase, Addr: -1, Old: uint64(PhaseIdle), New: uint64(PhaseDoorway), OK: true},
		{Proc: 0, Op: OpWrite, Addr: 0, Old: 0, New: 1, OK: true},
		{Proc: 0, Op: OpPhase, Addr: -1, Old: uint64(PhaseDoorway), New: uint64(PhaseCS), OK: true},
		{Proc: 0, Op: OpRead, Addr: 0, Old: 1, New: 1, OK: true},
	}
	if err := CheckTrace(events, map[Addr]uint64{0: 0}); err != nil {
		t.Fatalf("CheckTrace rejected a trace with phase events: %v", err)
	}
}

// --- Ring -------------------------------------------------------------------

func TestRingWraparound(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Record(Event{Time: int64(i)})
	}
	if got := r.Total(); got != 10 {
		t.Errorf("Total() = %d, want 10", got)
	}
	events := r.Events()
	if len(events) != 4 {
		t.Fatalf("len(Events()) = %d, want 4", len(events))
	}
	for i, ev := range events {
		if want := int64(6 + i); ev.Time != want {
			t.Errorf("Events()[%d].Time = %d, want %d (oldest-first)", i, ev.Time, want)
		}
	}
	r.Reset()
	if r.Total() != 0 || len(r.Events()) != 0 {
		t.Error("Reset did not clear the ring")
	}
	r.Record(Event{Time: 99})
	if got := r.Events(); len(got) != 1 || got[0].Time != 99 {
		t.Errorf("post-Reset Events() = %v", got)
	}
}

func TestRingUnderfill(t *testing.T) {
	r := NewRing(8)
	r.Record(Event{Time: 1})
	r.Record(Event{Time: 2})
	events := r.Events()
	if len(events) != 2 || events[0].Time != 1 || events[1].Time != 2 {
		t.Errorf("Events() = %v, want times [1 2]", events)
	}
}

func TestNewRingRejectsZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRing(0) did not panic")
		}
	}()
	NewRing(0)
}

// --- Stats ------------------------------------------------------------------

func TestStatsAttribution(t *testing.T) {
	m := NewMemory(CC, 2, nil)
	tree := m.AllocN(4, 0)
	m.Label(tree, 4, "tree/level1")
	spin := m.Alloc(0)
	m.Label(spin, 1, "spin")
	st := NewStats(m)
	m.SetStats(st)

	p0, p1 := m.Proc(0), m.Proc(1)
	p0.EnterPhase(PhaseDoorway)
	p0.FAA(tree, 1)   // rmr (first access)
	p0.Write(spin, 1) // rmr
	p0.EnterPhase(PhaseCS)
	p0.Read(spin) // cached after own write: hit, no rmr
	p0.EnterPhase(PhaseExit)
	p0.Swap(tree+1, 7) // rmr
	p0.EnterPhase(PhaseIdle)

	p1.EnterPhase(PhaseWaiting)
	p1.CAS(spin, 1, 2) // rmr, invalidates p0's copy
	p1.EnterPhase(PhaseAbort)
	p1.EnterPhase(PhaseIdle)

	s := st.Snapshot()
	treeID := m.LabelID("tree/level1")
	spinID := m.LabelID("spin")

	c := s.Cell(0, PhaseDoorway, treeID)
	if c.Ops[OpFAA-1] != 1 || c.RMRs != 1 {
		t.Errorf("p0 doorway tree cell = %+v, want one charged FAA", c)
	}
	c = s.Cell(0, PhaseDoorway, spinID)
	if c.Ops[OpWrite-1] != 1 || c.RMRs != 1 {
		t.Errorf("p0 doorway spin cell = %+v, want one charged write", c)
	}
	c = s.Cell(0, PhaseCS, spinID)
	if c.Ops[OpRead-1] != 1 || c.RMRs != 0 || c.Hits != 1 {
		t.Errorf("p0 cs spin cell = %+v, want one un-charged cached read", c)
	}
	c = s.Cell(0, PhaseExit, treeID)
	if c.Ops[OpSwap-1] != 1 || c.RMRs != 1 {
		t.Errorf("p0 exit tree cell = %+v, want one charged swap", c)
	}
	c = s.Cell(1, PhaseWaiting, spinID)
	if c.Ops[OpCAS-1] != 1 || c.RMRs != 1 || c.Invals != 1 {
		t.Errorf("p1 waiting spin cell = %+v, want one charged CAS invalidating one copy", c)
	}

	if got := s.LabelRMRs("tree/level1"); got != 2 {
		t.Errorf("LabelRMRs(tree/level1) = %d, want 2", got)
	}
	if got := s.ProcPhaseLabelRMRs(0, PhaseExit, "tree/"); got != 1 {
		t.Errorf("ProcPhaseLabelRMRs(0, exit, tree/) = %d, want 1", got)
	}
	if got := s.PhaseRMRs(PhaseDoorway); got != 2 {
		t.Errorf("PhaseRMRs(doorway) = %d, want 2", got)
	}
	if got := s.TotalRMRs(); got != 4 {
		t.Errorf("TotalRMRs() = %d, want 4", got)
	}

	// Passage accounting: p0 completed (cost 3), p1 aborted (cost 1).
	if s.Passages != 1 || s.AbortedPassages != 1 {
		t.Errorf("passages = %d completed, %d aborted; want 1, 1", s.Passages, s.AbortedPassages)
	}
	if s.PassageRMRs.Sum != 4 {
		t.Errorf("PassageRMRs.Sum = %d, want 4", s.PassageRMRs.Sum)
	}
	// Cost 3 lands in bucket ⌈log2⌉=2 ([2,3]); cost 1 in bucket 1.
	if c := s.PassageRMRs.Counts; c[1] != 1 || c[2] != 1 {
		t.Errorf("PassageRMRs.Counts = %v, want one passage each in buckets 1 and 2", c)
	}
}

func TestStatsLateLabelClampsToUnlabeled(t *testing.T) {
	m := NewMemory(CC, 1, nil)
	a := m.Alloc(0)
	st := NewStats(m)
	m.SetStats(st)
	// Interned after NewStats froze the dimension: out of range for st.
	m.Label(a, 1, "late/label")
	p := m.Proc(0)
	p.Write(a, 1)
	s := st.Snapshot()
	if got := s.Cell(0, PhaseIdle, 0).Ops[OpWrite-1]; got != 1 {
		t.Errorf("late-labeled write not clamped to the unlabeled column: %d", got)
	}
}

func TestSnapshotWritePrometheus(t *testing.T) {
	m := NewMemory(CC, 1, nil)
	a := m.Alloc(0)
	m.Label(a, 1, "region")
	words := m.AllocN(8, 0)
	cm, err := NewCostModel("ccnuma", 1)
	if err != nil {
		t.Fatal(err)
	}
	m.SetCostModel(cm)
	st := NewStats(m)
	m.SetStats(st)
	p := m.Proc(0)
	p.EnterPhase(PhaseDoorway)
	p.Write(a, 1)
	p.EnterPhase(PhaseIdle)

	var buf bytes.Buffer
	if err := st.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`rmr_ops_total{proc="0",phase="doorway",label="region",op="write"} 1`,
		`rmr_remote_total{proc="0",phase="doorway",label="region"} 1`,
		`rmr_passages_total{result="completed"} 1`,
		`rmr_passage_cost_rmrs_bucket{le="+Inf"} 1`,
		`rmr_passage_cost_rmrs_sum 1`,
		"# TYPE rmr_passage_cost_rmrs histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Determinism: a second rendering is byte-identical.
	var buf2 bytes.Buffer
	if err := st.Snapshot().WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("prometheus output not deterministic")
	}
	// The shared exposition linter must accept the exporter's own output.
	if errs := promtext.Lint(bytes.NewReader(buf.Bytes())); errs != nil {
		t.Errorf("promtext.Lint rejects WritePrometheus output: %v", errs)
	}

	// Three more passages, costing 0, 4 and 4 RMRs: every populated
	// bucket's cumulative count, the sums and the counts read as the
	// untrimmed 16-bucket exposition did, and the buckets stop after the
	// last populated one.
	p.EnterPhase(PhaseDoorway)
	p.Read(a) // cached after the write: no RMR
	p.EnterPhase(PhaseIdle)
	for k := 0; k < 2; k++ {
		p.EnterPhase(PhaseDoorway)
		for i := 0; i < 4; i++ {
			p.Write(words+Addr(4*k+i), 1)
		}
		p.EnterPhase(PhaseIdle)
	}
	buf.Reset()
	if err := st.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if errs := promtext.Lint(bytes.NewReader(buf.Bytes())); errs != nil {
		t.Errorf("promtext.Lint rejects WritePrometheus output: %v", errs)
	}
	out = buf.String()
	for _, want := range []string{
		`rmr_passage_cost_rmrs_bucket{le="0"} 1`,
		`rmr_passage_cost_rmrs_bucket{le="1"} 2`,
		`rmr_passage_cost_rmrs_bucket{le="7"} 4`,
		`rmr_passage_cost_rmrs_bucket{le="+Inf"} 4`,
		`rmr_passage_cost_rmrs_sum 9`,
		`rmr_passage_cost_rmrs_count 4`,
		`rmr_passage_sim_ns_bucket{cost="ccnuma",le="0"} 1`,
		`rmr_passage_sim_ns_bucket{cost="ccnuma",le="127"} 2`,
		`rmr_passage_sim_ns_bucket{cost="ccnuma",le="1023"} 4`,
		`rmr_passage_sim_ns_bucket{cost="ccnuma",le="+Inf"} 4`,
		`rmr_passage_sim_ns_sum{cost="ccnuma"} 1515`,
		`rmr_passage_sim_ns_count{cost="ccnuma"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	for _, unwanted := range []string{
		`rmr_passage_cost_rmrs_bucket{le="15"}`,
		`rmr_passage_sim_ns_bucket{cost="ccnuma",le="2047"}`,
	} {
		if strings.Contains(out, unwanted) {
			t.Errorf("prometheus output has %q past the last populated bucket", unwanted)
		}
	}
}

// --- exporters --------------------------------------------------------------

func traceSample(t *testing.T) ([]Event, []string) {
	t.Helper()
	m := NewMemory(CC, 2, nil)
	a := m.Alloc(0)
	m.Label(a, 1, "word")
	var events []Event
	m.SetTracer(func(ev Event) { events = append(events, ev) })
	p0, p1 := m.Proc(0), m.Proc(1)
	p0.EnterPhase(PhaseDoorway)
	p0.Write(a, 1)
	p0.EnterPhase(PhaseCS)
	p1.EnterPhase(PhaseWaiting)
	p1.CAS(a, 0, 2) // fails
	p0.EnterPhase(PhaseIdle)
	p1.EnterPhase(PhaseIdle)
	return events, m.Labels()
}

func TestWriteJSONL(t *testing.T) {
	events, labels := traceSample(t)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events, labels); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(events) {
		t.Fatalf("%d lines for %d events", len(lines), len(events))
	}
	var sawFailedCAS, sawPhaseEvent bool
	for _, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line does not parse: %v\n%s", err, line)
		}
		if obj["op"] == "cas" && obj["ok"] == false {
			sawFailedCAS = true
			if obj["label"] != "word" {
				t.Errorf("cas line label = %v, want word", obj["label"])
			}
		}
		if obj["op"] == "phase" {
			sawPhaseEvent = true
		}
	}
	if !sawFailedCAS {
		t.Error("no failed-CAS line")
	}
	if !sawPhaseEvent {
		t.Error("no phase-transition line")
	}
}

func TestWriteChromeTraceDeterministic(t *testing.T) {
	events, labels := traceSample(t)
	var a, b bytes.Buffer
	if err := WriteChromeTrace(&a, events, labels); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b, events, labels); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("chrome trace output not deterministic")
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &trace); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	var phaseSpans, opSpans, metas int
	for _, ev := range trace.TraceEvents {
		switch ev["ph"] {
		case "X":
			if ev["cat"] == "phase" {
				phaseSpans++
			} else {
				opSpans++
			}
		case "M":
			metas++
		}
	}
	if phaseSpans == 0 || opSpans == 0 || metas != 2 {
		t.Errorf("spans: phase=%d op=%d meta=%d; want >0, >0, 2", phaseSpans, opSpans, metas)
	}
}
