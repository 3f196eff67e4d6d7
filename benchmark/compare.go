package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json -compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

// loadSpec reads BENCHMARK.json from the repository root: the working
// directory, or its parent when run from benchmark/.
func loadSpec() (*benchSpec, error) {
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		buf, err := os.ReadFile(p)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		var s benchSpec
		if err := json.Unmarshal(buf, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, errors.New("BENCHMARK.json not found in . or ..")
}

func readResults(path string) (*results, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func compareFiles(w io.Writer, aPath, bPath string) (bool, error) {
	a, err := readResults(aPath)
	if err != nil {
		return false, err
	}
	b, err := readResults(bPath)
	if err != nil {
		return false, err
	}
	spec, err := loadSpec()
	if err != nil {
		return false, err
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return compare(w, a, b, bounds), nil
}

// compare prints A and B side by side. It reports false when an
// end-to-end metric's medians differ by more than its bound (relative to
// A), when an exact metric differs at all, or when B lacks either kind.
// Other metrics are shown without a verdict.
func compare(w io.Writer, a, b *results, bounds map[string]float64) bool {
	ok := true
	if !a.Correct || !b.Correct {
		fmt.Fprintf(w, "FAIL: incorrect run (A correct=%v, B correct=%v)\n", a.Correct, b.Correct)
		ok = false
	}
	fmt.Fprintf(w, "A: seed=%d %s window=%s   B: seed=%d %s window=%s\n",
		a.Env.Seed, a.Env.Go, a.Env.Window, b.Env.Seed, b.Env.Go, b.Env.Window)
	bw := map[string]*workloadResult{}
	for _, wr := range b.Workloads {
		bw[wr.Name] = wr
	}
	for _, wa := range a.Workloads {
		wb := bw[wa.Name]
		fmt.Fprintf(w, "\n== %s\n  %-38s %-9s %24s %24s %9s %7s  %s\n",
			wa.Name, "metric", "unit", "A median [IQR%]", "B median [IQR%]", "delta%", "bound%", "verdict")
		names := make([]string, 0, len(wa.Metrics))
		for name := range wa.Metrics {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool { return metricOrder(names[i]) < metricOrder(names[j]) })
		for _, name := range names {
			ma := wa.Metrics[name]
			gated := ma.Kind == kindE2E || ma.Kind == kindExact
			var mb metric
			var found bool
			if wb != nil {
				mb, found = wb.Metrics[name]
			}
			if !found {
				if gated {
					fmt.Fprintf(w, "  %-38s missing in B  FAIL\n", name)
					ok = false
				}
				continue
			}
			delta := 0.0
			if ma.Median != 0 {
				delta = (mb.Median - ma.Median) / math.Abs(ma.Median)
			} else if mb.Median != 0 {
				delta = math.Inf(1)
			}
			verdict, bound := "", ""
			switch ma.Kind {
			case kindE2E:
				bd := bounds[name]
				bound = fmt.Sprintf("%.1f", 100*bd)
				verdict = "ok"
				if math.Abs(delta) > bd {
					verdict, ok = "FAIL", false
				}
			case kindExact:
				bound = "exact"
				verdict = "ok"
				if mb.Median != ma.Median {
					verdict, ok = "FAIL", false
				}
			}
			fmt.Fprintf(w, "  %-38s %-9s %14.6g [%6.2f] %14.6g [%6.2f] %+9.2f %7s  %s\n",
				name, ma.Unit, ma.Median, ma.iqrPct(), mb.Median, mb.iqrPct(), 100*delta, bound, verdict)
		}
	}
	if ok {
		fmt.Fprintln(w, "\ncompare: agree within bounds")
	} else {
		fmt.Fprintln(w, "\ncompare: DISAGREE")
	}
	return ok
}
