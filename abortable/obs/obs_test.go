package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sublock/internal/promtext"
)

func TestHistSumClampsNegatives(t *testing.T) {
	var h Hist
	h.Observe(-100)
	h.Observe(10)
	if s := h.Snapshot(); s.Sum != 10 {
		t.Errorf("Sum = %d, want 10 (negative sample must clamp to 0)", s.Sum)
	}
}

func TestMetricsRecording(t *testing.T) {
	m := New("t", Config{})
	m.RecordAcquire(3 * time.Nanosecond)
	m.RecordAcquire(5 * time.Nanosecond)
	m.RecordAbort(7 * time.Nanosecond)
	m.RecordHandoff(2 * time.Nanosecond)
	m.IncPark()
	m.RecordPark(11 * time.Nanosecond)
	m.RecordBorrow(0)
	m.IncBorrowWait()
	m.RecordBorrow(13 * time.Nanosecond)
	m.IncBorrowWait() // a wait that was cancelled: counted, no borrow
	m.AddWaitRounds(4, 2)
	m.AddWaitRounds(0, 0) // must not disturb anything
	m.IncUnpark()
	m.IncArrival()
	m.IncClosedGate()
	m.IncSwitchWait()
	m.IncSwitch()
	m.IncWaiterRetire()

	s := m.Snapshot()
	if s.Name != "t" {
		t.Errorf("Name = %q", s.Name)
	}
	checks := []struct {
		name string
		got  int64
		want int64
	}{
		{"Acquires", s.Acquires, 2},
		{"Aborts", s.Aborts, 1},
		{"Acquire.Count", s.Acquire.Count(), 2},
		{"Acquire.Sum", s.Acquire.Sum, 8},
		{"Abort.Count", s.Abort.Count(), 1},
		{"Handoff.Count", s.Handoff.Count(), 1},
		{"Park.Count", s.Park.Count(), 1},
		{"Parks", s.Parks, 1},
		{"Borrow.Count", s.Borrow.Count(), 2},
		{"Borrows", s.Borrows, 2},
		{"BorrowWaits", s.BorrowWaits, 2},
		{"Spins", s.Spins, 4},
		{"Yields", s.Yields, 2},
		{"Unparks", s.Unparks, 1},
		{"Arrivals", s.Arrivals, 1},
		{"ClosedGate", s.ClosedGate, 1},
		{"SwitchWaits", s.SwitchWaits, 1},
		{"Switches", s.Switches, 1},
		{"WaiterRetires", s.WaiterRetires, 1},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// TestSpanInertWhenTraceOff: with no trace being captured, StartPassage
// must return the zero Span — no task allocation — and the zero Span's
// methods must be safe.
func TestSpanInertWhenTraceOff(t *testing.T) {
	m := New("t", Config{Trace: true})
	sp := m.StartPassage("doorway")
	if sp.task != nil {
		t.Fatal("StartPassage allocated a task with tracing off")
	}
	sp.Phase("cs")
	sp.End()
	sp.End() // double End must be safe

	var zero Span
	zero.Phase("x")
	zero.End()
}

func TestLabelsNoopWithoutConfig(t *testing.T) {
	m := New("t", Config{})
	// Must not panic or set anything; contexts are nil.
	m.SetAcquireLabels()
	m.SetCSLabels()
	m.ClearLabels()

	withLabels := New("t2", Config{ProfileLabels: true})
	withLabels.SetAcquireLabels()
	withLabels.SetCSLabels()
	withLabels.ClearLabels()
}

func TestRegistryRejectsDuplicate(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(New("a", Config{})); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(New("a", Config{})); err == nil {
		t.Fatal("duplicate Register must fail")
	}
}

func registryWithTraffic(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	a, b := New("alpha", Config{}), New("beta", Config{})
	r.MustRegister(b) // registration order must not leak into output order
	r.MustRegister(a)
	a.RecordAcquire(100 * time.Nanosecond)
	a.RecordAbort(50 * time.Nanosecond)
	a.RecordHandoff(10 * time.Nanosecond)
	a.AddWaitRounds(3, 1)
	b.RecordAcquire(time.Microsecond)
	b.IncPark()
	b.RecordPark(time.Millisecond)
	b.IncBorrowWait()
	b.RecordBorrow(time.Microsecond)
	return r
}

func TestWritePrometheusLintsClean(t *testing.T) {
	r := registryWithTraffic(t)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, err := range promtext.Lint(strings.NewReader(buf.String())) {
		t.Errorf("lint: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		`abortable_acquire_ns_bucket{lock="alpha",le="+Inf"} 1`,
		`abortable_acquire_ns_count{lock="beta"} 1`,
		`abortable_wait_tier_total{lock="alpha",tier="spin"} 3`,
		`abortable_wait_tier_total{lock="beta",tier="park"} 1`,
		`abortable_passages_total{lock="alpha",result="aborted"} 1`,
		`abortable_pool_borrow_waits_total{lock="beta"} 1`,
		"# TYPE abortable_park_wait_ns histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// Zero-count histogram series are omitted; headers still present.
	if strings.Contains(out, `abortable_park_wait_ns_count{lock="alpha"}`) {
		t.Error("zero-count histogram series for alpha should be omitted")
	}
	// Deterministic output.
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != out {
		t.Error("WritePrometheus output is not deterministic")
	}

	// A collector with samples across buckets: every populated bucket's
	// cumulative count, the sum and the count read as the full 40-bucket
	// exposition did, and the buckets stop after the last populated one.
	g := New("gamma", Config{})
	r.MustRegister(g)
	for _, ns := range []int64{0, 1, 3, 900, 1000, 5000, 1 << 20} {
		g.RecordAcquire(time.Duration(ns))
	}
	buf.Reset()
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, err := range promtext.Lint(strings.NewReader(buf.String())) {
		t.Errorf("lint: %v", err)
	}
	out = buf.String()
	for _, want := range []string{
		`abortable_acquire_ns_bucket{lock="alpha",le="127"} 1`,
		`abortable_acquire_ns_sum{lock="alpha"} 100`,
		`abortable_acquire_ns_bucket{lock="beta",le="1023"} 1`,
		`abortable_acquire_ns_sum{lock="beta"} 1000`,
		`abortable_acquire_ns_bucket{lock="gamma",le="0"} 1`,
		`abortable_acquire_ns_bucket{lock="gamma",le="1"} 2`,
		`abortable_acquire_ns_bucket{lock="gamma",le="3"} 3`,
		`abortable_acquire_ns_bucket{lock="gamma",le="1023"} 5`,
		`abortable_acquire_ns_bucket{lock="gamma",le="8191"} 6`,
		`abortable_acquire_ns_bucket{lock="gamma",le="2097151"} 7`,
		`abortable_acquire_ns_bucket{lock="gamma",le="+Inf"} 7`,
		`abortable_acquire_ns_sum{lock="gamma"} 1055480`,
		`abortable_acquire_ns_count{lock="gamma"} 7`,
		`abortable_abort_ns_bucket{lock="alpha",le="63"} 1`,
		`abortable_abort_ns_sum{lock="alpha"} 50`,
		`abortable_handoff_ns_bucket{lock="alpha",le="15"} 1`,
		`abortable_handoff_ns_sum{lock="alpha"} 10`,
		`abortable_park_wait_ns_bucket{lock="beta",le="1048575"} 1`,
		`abortable_park_wait_ns_sum{lock="beta"} 1000000`,
		`abortable_pool_borrow_wait_ns_bucket{lock="beta",le="1023"} 1`,
		`abortable_pool_borrow_wait_ns_count{lock="beta"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	for _, unwanted := range []string{
		`abortable_acquire_ns_bucket{lock="alpha",le="255"}`,
		`abortable_acquire_ns_bucket{lock="gamma",le="4194303"}`,
		`abortable_park_wait_ns_bucket{lock="beta",le="2097151"}`,
	} {
		if strings.Contains(out, unwanted) {
			t.Errorf("output has %q past the last populated bucket", unwanted)
		}
	}
}

func TestHandlerFormats(t *testing.T) {
	r := registryWithTraffic(t)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("prom Content-Type = %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "abortable_passages_total") {
		t.Error("prom body missing counter family")
	}

	resp, err = srv.Client().Get(srv.URL + "?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("json Content-Type = %q", ct)
	}
	var snaps []Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snaps); err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 || snaps[0].Name != "alpha" || snaps[1].Name != "beta" {
		t.Fatalf("json snapshots = %+v", snaps)
	}
	if snaps[0].Acquires != 1 || snaps[1].Parks != 1 {
		t.Errorf("json counters wrong: %+v", snaps)
	}
}

// TestRecordingDoesNotAllocate guards the obs-on discipline: recording is
// atomic adds into preallocated state, so an attached collector must not
// introduce allocations on lock paths.
func TestRecordingDoesNotAllocate(t *testing.T) {
	m := New("t", Config{ProfileLabels: true})
	avg := testing.AllocsPerRun(200, func() {
		m.SetAcquireLabels()
		m.RecordAcquire(123 * time.Nanosecond)
		m.SetCSLabels()
		m.AddWaitRounds(2, 1)
		m.IncPark()
		m.RecordPark(time.Microsecond)
		m.IncUnpark()
		m.IncArrival()
		m.RecordHandoff(45 * time.Nanosecond)
		m.ClearLabels()
	})
	if avg != 0 {
		t.Errorf("recording allocates %.1f objects per passage, want 0", avg)
	}
}
