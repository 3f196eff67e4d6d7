package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// shrink makes every workload small enough to run all of them within a
// few seconds: tiny warm-ups, a short control probe and a shallow
// exploration. The metrics keep their names and units.
func shrink(t *testing.T) {
	t.Helper()
	hot, churn, warm, ctl, vc, wc := hotkeyShape, churnShape, nativeWarm, controlTime, verifyCfg, warmCfg
	t.Cleanup(func() {
		hotkeyShape, churnShape, nativeWarm, controlTime, verifyCfg, warmCfg = hot, churn, warm, ctl, vc, wc
	})
	hotkeyShape.warmCycles, churnShape.warmCycles = 8, 8
	nativeWarm = 1000
	controlTime = 10 * time.Millisecond
	verifyCfg.MaxSteps, warmCfg.MaxSteps = 12, 8
}

// TestWorkloadsEmitSpecMetrics runs each workload at a tiny budget,
// untraced and traced, and checks the summary line carries exactly the
// metrics BENCHMARK.json names, with their units.
func TestWorkloadsEmitSpecMetrics(t *testing.T) {
	shrink(t)
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, spec.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			res := runAll(options{workloads: []workload{w}, seed: 3, seconds: 0.1, traced: traced})
			if !res.Correct {
				t.Fatalf("%s traced=%v: %v", w.name, traced, res.Violations)
			}
			want := e2e
			if traced {
				want = layer
			}
			line := res.contractLine(traced)
			if line.Attempted < 1 || line.Failed != 0 {
				t.Errorf("%s traced=%v: attempted=%d failed=%d", w.name, traced, line.Attempted, line.Failed)
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w.name, traced, len(line.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := line.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, name)
				case got.Unit != unit:
					t.Errorf("%s traced=%v: %s unit %q, BENCHMARK.json %q", w.name, traced, name, got.Unit, unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, got.Value)
				}
			}
		}
	}
}

// doubleGrant answers every acquire itself with the same token, as a
// server that lost mutual exclusion would, and passes the rest through.
func doubleGrant(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/acquire" {
			h.ServeHTTP(w, r)
			return
		}
		var req struct{ Name string }
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"name": req.Name, "token": 1, "ttl_ms": 10000, "expires_in_ms": 10000})
	})
}

func TestDoubleGrantTripsLeaseOracle(t *testing.T) {
	shrink(t)
	res := runAll(options{workloads: workloads[:1], seed: 1, seconds: 0.1, wrap: doubleGrant})
	if res.Correct {
		t.Fatal("a double-granting server passed the lease oracle")
	}
	if !strings.Contains(strings.Join(res.Violations, "\n"), "lease oracle") {
		t.Fatalf("violations do not name the lease oracle: %v", res.Violations)
	}
}

func TestCriticalSectionCheck(t *testing.T) {
	st := &csState{}
	st.cs()
	st.cs()
	if err := st.check(2); err != nil {
		t.Fatal(err)
	}
	if err := st.check(3); err == nil {
		t.Fatal("a lost passage went unnoticed")
	}
	st.inCS = 1 // another worker is inside
	st.cs()
	if err := st.check(3); err == nil {
		t.Fatal("an overlap went unnoticed")
	}
}

// syntheticResults is a results document with one workload holding an
// end-to-end metric, an exact one and a layer one.
func syntheticResults(heap, replays float64) *results {
	return &results{Correct: true, Workloads: []*workloadResult{{
		Name: "sim-verify",
		Metrics: map[string]metric{
			"heap_peak_mib":     newMetric("heap_peak_mib", kindE2E, []float64{heap, heap * 1.01, heap * 0.99}, 3),
			"explorer.replays":  newMetric("explorer.replays", kindExact, []float64{replays}, 1),
			"explorer.verify_s": newMetric("explorer.verify_s", kindLayer, []float64{1.5}, 1),
		},
	}}}
}

func TestCompare(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	if bounds["heap_peak_mib"] >= 0.3 {
		t.Fatalf("heap_peak_mib bound %v cannot flag a 30%% shift", bounds["heap_peak_mib"])
	}
	base := syntheticResults(100, 5000)
	cases := []struct {
		name string
		b    *results
		ok   bool
	}{
		{"identical", syntheticResults(100, 5000), true},
		{"within the bound", syntheticResults(100*(1+bounds["heap_peak_mib"]/2), 5000), true},
		{"30% slower", syntheticResults(130, 5000), false},
		{"30% faster", syntheticResults(70, 5000), false},
		{"exact count moved by one", syntheticResults(100, 5001), false},
		{"layer metric only", func() *results {
			r := syntheticResults(100, 5000)
			r.Workloads[0].Metrics["explorer.verify_s"] = newMetric("explorer.verify_s", kindLayer, []float64{999}, 1)
			return r
		}(), true},
		{"workload missing", &results{Correct: true}, false},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if got := compare(&out, base, c.b, bounds); got != c.ok {
			t.Errorf("%s: compare = %v, want %v\n%s", c.name, got, c.ok, out.String())
		}
	}
}

// TestCompareRecordedRuns checks the two recorded full runs of the same
// code agree within the benchmark's own bounds.
func TestCompareRecordedRuns(t *testing.T) {
	ok, err := compareFiles(io.Discard, "testdata/run-a.json", "testdata/run-b.json")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("the recorded runs disagree; rerun with -compare to see which metric")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) in Python.
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{7}, 7, 7, 7},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestSamplerKeepsUniformSubsample(t *testing.T) {
	s := newSampler(8)
	for i := int64(0); i < 100; i++ {
		s.add(i)
	}
	if s.n != 100 || len(s.buf) > 8 || s.buf[0] != 0 {
		t.Fatalf("n=%d kept=%v", s.n, s.buf)
	}
	for i := 1; i < len(s.buf); i++ {
		if d := s.buf[i] - s.buf[i-1]; d != s.stride {
			t.Fatalf("kept %v: gap %d, want the stride %d", s.buf, d, s.stride)
		}
	}
	if last := s.buf[len(s.buf)-1]; last < 100-2*s.stride {
		t.Fatalf("kept %v: the end of the stream is missing", s.buf)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}}
	if got := selfNS(parent, kids); got != 60 {
		t.Fatalf("self = %d, want 60 (children cover 10-40 and 90-100)", got)
	}
}
