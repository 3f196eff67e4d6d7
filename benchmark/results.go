package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// metric is one metric of one workload in a results file.
type metric struct {
	Unit   string    `json:"unit"`
	Kind   string    `json:"kind"`
	Better string    `json:"better"`
	Rounds []float64 `json:"rounds"` // one value per round it was measured in
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int64     `json:"n"` // samples behind the value
}

func newMetric(name, kind string, vals []float64, n int64) metric {
	d, _ := defOf(name)
	q1, med, q3 := quartiles(vals)
	return metric{Unit: d.unit, Kind: kind, Better: d.better, Rounds: vals, Median: med, Q1: q1, Q3: q3, N: n}
}

// iqrPct is the interquartile range as a percentage of the median.
func (m metric) iqrPct() float64 {
	if m.Median == 0 {
		return 0
	}
	return 100 * (m.Q3 - m.Q1) / m.Median
}

type workloadResult struct {
	Name      string            `json:"name"`
	Why       string            `json:"why"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type env struct {
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Rounds     int     `json:"rounds"`
	Window     string  `json:"window"`
	Traced     bool    `json:"traced"`
}

// results is the document -o writes and -compare reads.
type results struct {
	Schema     string            `json:"schema"`
	Env        env               `json:"env"`
	Correct    bool              `json:"correct"`
	Violations []string          `json:"violations,omitempty"`
	Workloads  []*workloadResult `json:"workloads"`
}

func newResults(opts options, n int, window time.Duration) *results {
	return &results{
		Schema:  "sublock-benchmark/v1",
		Correct: true,
		Env: env{
			Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
			Seed: opts.seed, Seconds: opts.seconds, Rounds: n, Window: window.String(), Traced: opts.traced,
		},
	}
}

func (res *results) fail(msg string) {
	res.Correct = false
	res.Violations = append(res.Violations, msg)
}

// add summarizes a workload's rounds. End-to-end metrics come from the
// untraced rounds only; in a traced run the layer metrics come from the
// traced round, with the tracing overhead as traced minus untraced.
func (res *results) add(w workload, rds []*round, traced bool) {
	wr := &workloadResult{Name: w.name, Why: w.why, Metrics: map[string]metric{}}
	res.Workloads = append(res.Workloads, wr)
	untraced := rds
	if traced {
		untraced = rds[:1]
	}
	var latN int64
	perRound := make([]map[string]float64, len(untraced))
	for i, rd := range untraced {
		perRound[i] = rd.summary
		latN += rd.latN
	}
	for kind, defs := range map[string][]metricDef{kindE2E: endToEnd, kindReported: reported} {
		for _, d := range defs {
			vals := make([]float64, len(perRound))
			for i, pr := range perRound {
				vals[i] = pr[d.name]
			}
			n := int64(len(vals))
			if strings.HasPrefix(d.name, "op_p") {
				n = latN
			}
			wr.Metrics[d.name] = newMetric(d.name, kind, vals, n)
		}
	}
	for _, rd := range rds {
		wr.Attempted += rd.attempted
		wr.Failed += rd.failed
	}
	for name := range rds[0].noise {
		vals := make([]float64, len(rds))
		for i, rd := range rds {
			vals[i] = rd.noise[name]
		}
		wr.Metrics[name] = newMetric(name, kindNoise, vals, int64(len(vals)))
	}
	for name, v := range rds[0].exact {
		vals := make([]float64, len(rds))
		for i, rd := range rds {
			vals[i] = rd.exact[name]
			if vals[i] != v {
				res.fail(fmt.Sprintf("%s: exact metric %s differs across rounds: %v then %v", w.name, name, v, vals[i]))
			}
		}
		wr.Metrics[name] = newMetric(name, kindExact, vals, int64(len(vals)))
	}
	if !traced {
		return
	}
	tr := rds[1]
	for name, v := range tr.layers {
		wr.Metrics[name] = newMetric(name, kindLayer, []float64{v}, 1)
	}
	plain, withTrace := perRound[0], tr.summary
	for _, d := range endToEnd {
		delta := withTrace[d.name] - plain[d.name]
		if d.better == "higher" {
			delta = -delta
		}
		wr.Metrics["overhead."+d.name] = newMetric("overhead."+d.name, kindLayer, []float64{delta}, 1)
	}
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the one-line summary printed last: the end-to-end
// metrics of an untraced run, or every per-layer metric of a traced one
// (0 for a layer the workload does not pass through). With more than one
// workload, names are prefixed with the workload's.
type contractLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

func (res *results) contractLine(traced bool) contractLine {
	line := contractLine{Correct: res.Correct, Metrics: map[string]valueUnit{}}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, wr := range res.Workloads {
		line.Attempted += wr.Attempted
		line.Failed += wr.Failed
		prefix := ""
		if len(res.Workloads) > 1 {
			prefix = wr.Name + "/"
		}
		for _, d := range defs {
			line.Metrics[prefix+d.name] = valueUnit{Value: wr.Metrics[d.name].Median, Unit: d.unit}
		}
	}
	return line
}
