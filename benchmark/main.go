// Command benchmark is the repository benchmark: four closed-loop
// workloads over the lock service, the native lock and the simulator,
// measured end to end with tracing off and split by layer in a separate
// traced run. See README.md in this directory.
//
// Run it through run.sh, which builds it from the checkout:
//
//	bash benchmark/run.sh -seed 1 -o a.json             # every workload, 5 rounds
//	bash benchmark/run.sh -workload lockd-churn -seconds 20
//	bash benchmark/run.sh -trace traces/                # layer table + span files
//	bash benchmark/run.sh -compare a.json b.json
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics (end-to-end ones untraced, per-layer
// ones traced). The exit status is 1 when any output was incorrect.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"sublock/internal/harness"
)

// rounds is how many fresh instances of each workload an untraced run
// measures; each metric is the median over them.
const rounds = 5

// loadWorkers is the number of load goroutines (clients, lock workers) a
// workload drives: two, but never more than there are CPUs, so the load
// generator does not measure the Go scheduler.
func loadWorkers() int { return min(2, runtime.NumCPU()) }

// roundCfg parameterizes one round of one workload.
type roundCfg struct {
	seed   int64
	window time.Duration
	tr     *tracer // nil when the round is untraced
	// wrap, when set, wraps the lockd handler; tests use it to inject a
	// faulty server.
	wrap func(http.Handler) http.Handler
}

// round is what one round of one workload measured.
type round struct {
	setup                  time.Duration
	meter                  meterResult
	attempted, failed, ops int64
	lat                    harness.Series // op latencies in ns, subsampled
	latN                   int64          // op latencies observed
	exact                  map[string]float64
	layers                 map[string]float64 // traced rounds only
	noise                  map[string]float64
	// summary holds the end-to-end and reported metrics, computed when
	// the round ends so that its latency samples can be dropped.
	summary map[string]float64
}

// summarize computes the round's end-to-end and reported metrics.
func (r *round) summarize() map[string]float64 {
	ops := float64(r.ops)
	return map[string]float64{
		"setup_s":       r.setup.Seconds(),
		"op_p50_us":     usOf(r.lat.Percentile(0.5)),
		"op_p90_us":     usOf(r.lat.Percentile(0.90)),
		"ops_per_s":     ops / r.meter.elapsed.Seconds(),
		"cpu_us_per_op": r.meter.cpu.Seconds() * 1e6 / ops,
		"heap_peak_mib": float64(r.meter.heapPeak) / (1 << 20),
		"op_p99_us":     usOf(r.lat.Percentile(0.99)),
		"fail_ratio":    float64(r.failed) / float64(r.attempted),
	}
}

func (r *round) runtimeLayers() {
	ops := float64(r.ops)
	r.layers["runtime.alloc_bytes_per_op"] = float64(r.meter.allocBytes) / ops
	r.layers["runtime.allocs_per_op"] = float64(r.meter.allocs) / ops
	r.layers["runtime.gc_cycles_per_s"] = float64(r.meter.gcCycles) / r.meter.elapsed.Seconds()
	r.layers["runtime.sched_latency_us_p99"] = r.meter.schedP99 * 1e6
}

// workload is one named set of inputs.
type workload struct {
	name, why string
	// minSamples is the number of op latencies a round of a second or more
	// must hold, so that its p99 has at least ten samples beyond it.
	minSamples int64
	run        func(roundCfg) (*round, error)
}

var workloads = []workload{
	{"lockd-hotkey", "Zipf(1.5) names over 1024 resident locks: same-name waits exercise the handle pool and the abortable wait tiers", 1000,
		func(c roundCfg) (*round, error) { return runLockd(hotkeyShape, c) }},
	{"lockd-churn", "uniform names over 1,000,000 with 1024 live: nearly every acquire creates an entry and evicts one, the lock itself idles", 1000,
		func(c roundCfg) (*round, error) { return runLockd(churnShape, c) }},
	{"native-mix", "the abortable lock without HTTP: 90% Enter, 10% TryEnter aborts, a 64-word critical section", 0, runNativeMix},
	{"sim-verify", "the researcher's loop: exhaustive exploration of the paper's lock, then RMR counts and priced simulated latency", 0, runSimVerify},
}

// options selects what one invocation runs.
type options struct {
	workloads []workload
	seed      int64
	seconds   float64 // measured time per workload, split over its rounds
	traced    bool    // one untraced round, then one traced round
	traceDir  string  // where a traced run writes spans; "" writes none
	wrap      func(http.Handler) http.Handler
}

// derive mixes a seed with indices into an independent seed (splitmix64).
func derive(seed int64, idx ...int64) int64 {
	z := uint64(seed)
	for _, i := range idx {
		z += 0x9e3779b97f4a7c15 * uint64(i+1)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z >> 1)
}

// runAll runs every round of every selected workload, interleaved: round
// r runs each workload once, starting at a rotating position, each in a
// fresh instance. A traced round's spans are written out (with a trace
// directory) and released before the next round, so no round carries
// another's spans in its heap.
func runAll(opts options) *results {
	n := rounds
	if opts.traced {
		n = 2
	}
	window := time.Duration(opts.seconds / float64(n) * float64(time.Second))
	res := newResults(opts, n, window)
	perWL := map[string][]*round{}
	for r := 0; r < n; r++ {
		for i := range opts.workloads {
			w := opts.workloads[(i+r)%len(opts.workloads)]
			cfg := roundCfg{seed: derive(opts.seed, int64(r)), window: window, wrap: opts.wrap}
			if opts.traced && r == 1 {
				cfg.tr = newTracer()
			}
			rd, err := runRound(w, cfg)
			if err == nil && cfg.tr != nil && opts.traceDir != "" {
				err = cfg.tr.writeSpans(filepath.Join(opts.traceDir, w.name+".spans.jsonl"))
			}
			if err != nil {
				res.fail(fmt.Sprintf("%s round %d: %v", w.name, r, err))
				return res
			}
			perWL[w.name] = append(perWL[w.name], rd)
		}
	}
	for _, w := range opts.workloads {
		res.add(w, perWL[w.name], opts.traced)
	}
	return res
}

// runRound runs one round of w and the noise probes after it.
func runRound(w workload, cfg roundCfg) (*round, error) {
	// Start from a collected heap, so heap_peak_mib measures this round
	// and not the garbage of the round before, which in an interleaved
	// run is another workload's.
	runtime.GC()
	rd, err := w.run(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.window >= time.Second && rd.latN < w.minSamples {
		return nil, fmt.Errorf("%d op latencies, want at least %d", rd.latN, w.minSamples)
	}
	if rd.layers != nil {
		rd.runtimeLayers()
	}
	rd.summary = rd.summarize()
	rd.lat = nil
	control, err := controlMutex(cfg.seed)
	if err != nil {
		return nil, err
	}
	rd.noise = map[string]float64{
		"control.mutex_passage_ns_p50": control,
		"loadgen.timer_late_us_p50":    timerProbe(50),
	}
	return rd, nil
}

func main() {
	var (
		wlFlag  = flag.String("workload", "", "run only this workload (default: all, interleaved)")
		seed    = flag.Int64("seed", 1, "seed the workload inputs are drawn from")
		seconds = flag.Float64("seconds", 30, "measured seconds per workload, split evenly over its rounds")
		trace   = flag.String("trace", "0", "0: untraced rounds; 1: one untraced and one traced round; a directory: as 1, and write spans and the layer table there")
		out     = flag.String("o", "", "write the full results as JSON to this file")
		cmp     = flag.Bool("compare", false, "compare two results files given as arguments")
	)
	flag.Parse()
	if *cmp {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two results files")
			os.Exit(2)
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	opts := options{seed: *seed, seconds: *seconds, workloads: workloads, traced: *trace != "0" && *trace != ""}
	if opts.traced && *trace != "1" {
		opts.traceDir = *trace
		if err := os.MkdirAll(opts.traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
	}
	if *wlFlag != "" {
		opts.workloads = nil
		for _, w := range workloads {
			if w.name == *wlFlag {
				opts.workloads = []workload{w}
			}
		}
		if opts.workloads == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *wlFlag)
			os.Exit(2)
		}
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive")
		os.Exit(2)
	}

	res := runAll(opts)
	printReport(os.Stdout, res)
	if opts.traceDir != "" {
		if err := writeLayerTable(filepath.Join(opts.traceDir, "layers.json"), res); err != nil {
			res.fail(fmt.Sprintf("layer table: %v", err))
		}
	}
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			res.fail(fmt.Sprintf("write %s: %v", *out, err))
		}
	}
	line, err := json.Marshal(res.contractLine(opts.traced))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// printReport prints every metric by name with its unit, median,
// quartiles and sample count, then the noise context and, for a traced
// run, the layer table.
func printReport(w io.Writer, res *results) {
	e := res.Env
	fmt.Fprintf(w, "benchmark: seed=%d nproc=%d GOMAXPROCS=%d %s rounds=%d window=%s traced=%v\n",
		e.Seed, e.Nproc, e.GOMAXPROCS, e.Go, e.Rounds, e.Window, e.Traced)
	for _, v := range res.Violations {
		fmt.Fprintln(w, "VIOLATION:", v)
	}
	for _, wr := range res.Workloads {
		ratio := 0.0
		if wr.Attempted > 0 {
			ratio = float64(wr.Failed) / float64(wr.Attempted)
		}
		fmt.Fprintf(w, "\n== %s  attempted=%d failed=%d fail_ratio=%.6f\n", wr.Name, wr.Attempted, wr.Failed, ratio)
		fmt.Fprintf(w, "  %-38s %-13s %14s %14s %14s %7s %9s  %s\n", "metric", "unit", "median", "q1", "q3", "iqr%", "n", "moves")
		for _, kind := range []string{kindE2E, kindReported, kindNoise, kindExact, kindLayer} {
			names := wr.names(kind)
			if len(names) > 0 {
				fmt.Fprintf(w, "  -- %s\n", kind)
			}
			for _, name := range names {
				m := wr.Metrics[name]
				d, _ := defOf(name)
				fmt.Fprintf(w, "  %-38s %-13s %14.6g %14.6g %14.6g %7.2f %9d  %s\n",
					name, m.Unit, m.Median, m.Q1, m.Q3, m.iqrPct(), m.N, d.moves)
			}
		}
	}
}

func (wr *workloadResult) names(kind string) []string {
	var out []string
	for name, m := range wr.Metrics {
		if m.Kind == kind {
			out = append(out, name)
		}
	}
	sort.Slice(out, func(i, j int) bool { return metricOrder(out[i]) < metricOrder(out[j]) })
	return out
}
