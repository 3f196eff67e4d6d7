// Command rmrbench regenerates the evaluation artifacts of Alon & Morrison
// (PODC 2018) on the RMR-metered shared-memory simulator: every column of
// Table 1 and the figure-derived experiments of §4 and §6.
//
// Usage:
//
//	rmrbench [-quick] [experiment ...]
//
// With no arguments every experiment runs (-list enumerates: e1–e7 and
// e9–e17; e8, the Theorem 2 property checking, lives in cmd/locktest and
// the test suite). -quick shrinks the sweeps for a fast smoke run, -csv
// emits machine-readable series, -chart N renders column N as an ASCII bar
// chart, -seed feeds the randomized workloads (e14), and -prom FILE
// additionally writes a stats-instrumented abort storm's counters in the
// Prometheus text exposition format.
//
// -cost NAMES (comma-separated; see rmr.CostModelNames) and -cost-seed S
// select the deterministic latency models priced by the E17 experiment and
// the matrix's latency section. Cost models are observe-only: they never
// change schedules or RMR counts, only the simulated-time annotations.
//
// -matrix FILE writes a per-lock × per-model (CC/DSM) benchmark matrix as
// JSON, iterating the locks registry instead of any hand-listed lock set
// (-list-locks enumerates the registry). The matrix carries two sections:
// "locks" (RMR/space cells) and "latency" (simulated p50/p95/p99 passage
// latency per lock × memory model × cost model, keyed by -cost-seed).
// -matrix-locks restricts the matrix to a comma-separated subset of the
// registry, and -workers bounds the matrix's parallelism — every cell is an
// independent deterministic run, so the output is byte-identical at any
// worker count. With -matrix and no experiment arguments, only the matrix
// is produced.
//
// -deadline D bounds the whole run in wall-clock time: a benchmark that
// livelocks past it reports the in-flight experiment to stderr and exits
// with status 3 instead of hanging the caller.
//
// -explore FILE writes the bounded-exhaustive exploration record as JSON:
// the paper lock's E8 configurations (with and without an aborter) explored
// to exhaustion with partial-order reduction off and on, recording replays,
// pruned-equivalent counts, and replays/sec for each. -por=false restricts
// it to the unreduced baseline.
//
// The quick matrix and exploration record are committed under testdata/
// and gated exactly by TestQuickArtifactsMatchGolden: every field but the
// wall-clock seconds and replays/sec must match. An intended change is
// recorded by regenerating them from the repository root:
//
//	go run ./cmd/rmrbench -quick -matrix cmd/rmrbench/testdata/quick_matrix.json -explore cmd/rmrbench/testdata/quick_explore.json
//
// Wall-clock performance is measured by the benchmark/ module instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sublock/internal/harness"
	"sublock/locks"
	"sublock/rmr"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rmrbench:", err)
		os.Exit(1)
	}
}

type experiment struct {
	id   string
	desc string
	full func() (*harness.Table, error)
	fast func() (*harness.Table, error)
}

func experiments(seed int64, costs []string, costSeed int64) []experiment {
	const w = harness.DefaultW
	return []experiment{
		{
			id: "e1", desc: "Table 1 worst-case column",
			full: func() (*harness.Table, error) { return harness.Table1WorstCase([]int{64, 256, 1024, 4096}, w) },
			fast: func() (*harness.Table, error) { return harness.Table1WorstCase([]int{16, 64}, w) },
		},
		{
			id: "e2", desc: "Table 1 no-aborts column",
			full: func() (*harness.Table, error) { return harness.Table1NoAborts([]int{64, 256, 1024}, w) },
			fast: func() (*harness.Table, error) { return harness.Table1NoAborts([]int{16, 64}, w) },
		},
		{
			id: "e3", desc: "Table 1 adaptive-bound column",
			full: func() (*harness.Table, error) {
				return harness.Table1Adaptive(4096, w, []int{0, 1, 4, 16, 64, 256, 1024})
			},
			fast: func() (*harness.Table, error) { return harness.Table1Adaptive(64, w, []int{0, 4, 16}) },
		},
		{
			id: "e4", desc: "Table 1 space column",
			full: func() (*harness.Table, error) { return harness.Table1Space([]int{64, 256, 1024}, w) },
			fast: func() (*harness.Table, error) { return harness.Table1Space([]int{16, 64}, w) },
		},
		{
			id: "e5", desc: "§1 time/space tradeoff: RMRs vs word width W",
			full: func() (*harness.Table, error) { return harness.WSweep(4096, []int{2, 4, 8, 16, 32, 64}) },
			fast: func() (*harness.Table, error) { return harness.WSweep(256, []int{2, 8, 64}) },
		},
		{
			id: "e6", desc: "Figure 2 FindNext scenarios",
			full: harness.Fig2Scenarios,
			fast: harness.Fig2Scenarios,
		},
		{
			id: "e7", desc: "Figure 4 adaptive vs plain FindNext",
			full: func() (*harness.Table, error) { return harness.Fig4Adaptive([]int{64, 512, 4096, 32768}, w) },
			fast: func() (*harness.Table, error) { return harness.Fig4Adaptive([]int{64, 512}, w) },
		},
		{
			id: "e9", desc: "§6 long-lived transformation overhead",
			full: func() (*harness.Table, error) { return harness.LongLivedOverhead(16, 32, w) },
			fast: func() (*harness.Table, error) { return harness.LongLivedOverhead(4, 8, w) },
		},
		{
			id: "e10", desc: "§3 DSM spin-bit indirection",
			full: func() (*harness.Table, error) { return harness.DSMVariant([]int{100, 1000, 10000}) },
			fast: func() (*harness.Table, error) { return harness.DSMVariant([]int{100, 1000}) },
		},
		{
			id: "e11", desc: "MCS O(1) anchor",
			full: func() (*harness.Table, error) { return harness.MCSAnchor([]int{64, 256, 1024}) },
			fast: func() (*harness.Table, error) { return harness.MCSAnchor([]int{16, 64}) },
		},
		{
			id: "e13", desc: "§6 spin-node ablation",
			full: func() (*harness.Table, error) { return harness.SpinNodeAblation([]int{4, 16, 64, 256}) },
			fast: func() (*harness.Table, error) { return harness.SpinNodeAblation([]int{4, 16}) },
		},
		{
			id: "e14", desc: "dynamic churn: long-lived lock under abort-probability sweep",
			full: func() (*harness.Table, error) {
				return harness.ChurnSweep(harness.AlgoPaperLLBounded, w, 16, 64,
					[]float64{0, 0.1, 0.25, 0.5, 0.75, 0.95}, seed)
			},
			fast: func() (*harness.Table, error) {
				return harness.ChurnSweep(harness.AlgoPaperLLBounded, w, 6, 16, []float64{0, 0.5}, seed)
			},
		},
		{
			id: "e16", desc: "DSM model: the one-shot lock's Table 1 CC/DSM claim",
			full: func() (*harness.Table, error) { return harness.DSMTable([]int{64, 256, 1024}, w) },
			fast: func() (*harness.Table, error) { return harness.DSMTable([]int{16, 64}, w) },
		},
		{
			id: "e15", desc: "point contention: cost vs active processes at fixed capacity",
			full: func() (*harness.Table, error) {
				return harness.PointContention(1024, w, []int{2, 8, 64, 512})
			},
			fast: func() (*harness.Table, error) {
				return harness.PointContention(64, w, []int{2, 8, 32})
			},
		},
		{
			id: "e17", desc: "simulated passage latency by cost model, full lock registry",
			full: func() (*harness.Table, error) { return harness.LatencyTable(costs, costSeed, 64) },
			fast: func() (*harness.Table, error) { return harness.LatencyTable(costs, costSeed, 16) },
		},
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rmrbench", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "shrink sweeps for a fast smoke run")
	list := fs.Bool("list", false, "list experiments and exit")
	csvOut := fs.Bool("csv", false, "emit CSV instead of formatted tables")
	chartCol := fs.Int("chart", 0, "also render the given column index as an ASCII bar chart")
	seed := fs.Int64("seed", 42, "seed for the randomized workloads (e14)")
	promFile := fs.String("prom", "", "also write abort-storm counters to `file` in Prometheus text format")
	matrixFile := fs.String("matrix", "", "write the per-lock × per-model benchmark matrix to `file` as JSON")
	costFlag := fs.String("cost", "ccnuma,dsmremote", "comma-separated cost `models` priced by e17 and the matrix's latency section")
	costSeed := fs.Int64("cost-seed", 1, "seed for the deterministic cost models")
	workers := fs.Int("workers", 0, "matrix parallelism (0 = GOMAXPROCS); the output is byte-identical at any value")
	matrixLocks := fs.String("matrix-locks", "", "restrict the matrix to these comma-separated `locks` (default: the whole registry)")
	exploreFile := fs.String("explore", "", "write the E8 exhaustive-exploration record to `file` as JSON")
	por := fs.Bool("por", true, "include the partial-order-reduction passes in -explore")
	listLocks := fs.Bool("list-locks", false, "list the registered locks and exit")
	deadline := fs.Duration("deadline", 0, "wall-clock bound for the whole run; on expiry report the in-flight experiment and exit 3")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// inflight names the experiment or artifact currently running, so an
	// expired deadline can say what was stuck instead of dying silently.
	var inflight atomic.Value
	inflight.Store("startup")
	if *deadline > 0 {
		timer := time.AfterFunc(*deadline, func() {
			fmt.Fprintf(os.Stderr, "rmrbench: deadline %v exceeded (in flight: %s)\n",
				*deadline, inflight.Load())
			os.Exit(3)
		})
		defer timer.Stop()
	}
	if *listLocks {
		for _, info := range locks.Infos() {
			fmt.Printf("  %-24s %s\n", info.Name, info.Summary)
		}
		return nil
	}
	costs, err := splitCosts(*costFlag, *costSeed)
	if err != nil {
		return err
	}
	exps := experiments(*seed, costs, *costSeed)
	if *list {
		for _, e := range exps {
			fmt.Printf("  %-4s %s\n", e.id, e.desc)
		}
		return nil
	}
	if *matrixFile != "" {
		inflight.Store("matrix")
		if err := writeMatrix(*matrixFile, *quick, costs, *costSeed, *workers, *matrixLocks); err != nil {
			return fmt.Errorf("matrix: %w", err)
		}
	}
	if *exploreFile != "" {
		inflight.Store("explore")
		if err := writeExplore(*exploreFile, *quick, *por); err != nil {
			return fmt.Errorf("explore: %w", err)
		}
	}
	// An artifact-only invocation skips the experiments.
	if (*matrixFile != "" || *exploreFile != "") && fs.NArg() == 0 && *promFile == "" {
		return nil
	}
	known := map[string]bool{}
	for _, e := range exps {
		known[e.id] = true
	}
	// Validate in argument order so the reported error is deterministic.
	want := map[string]bool{}
	for _, a := range fs.Args() {
		a = strings.ToLower(a)
		if a == "all" {
			want = map[string]bool{}
			break
		}
		if !known[a] {
			return fmt.Errorf("unknown experiment %q (use -list)", a)
		}
		want[a] = true
	}
	for _, e := range exps {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		fn := e.full
		if *quick {
			fn = e.fast
		}
		inflight.Store(e.id)
		tbl, err := fn()
		if err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		if *csvOut {
			fmt.Printf("# %s\n", tbl.Title)
			if err := tbl.FprintCSV(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
		} else {
			tbl.Fprint(os.Stdout)
		}
		if *chartCol > 0 {
			if err := tbl.FprintChart(os.Stdout, *chartCol); err != nil {
				fmt.Fprintf(os.Stderr, "rmrbench: %s: chart: %v\n", e.id, err)
			}
		}
	}
	if *promFile != "" {
		inflight.Store("prom")
		if err := writeProm(*promFile, *quick); err != nil {
			return fmt.Errorf("prom: %w", err)
		}
	}
	return nil
}

// matrixEntry is one (lock, model) cell of the benchmark matrix.
type matrixEntry struct {
	Lock  string `json:"lock"`
	Model string `json:"model"`
	// Queue drain (the Table 1 "No aborts" workload).
	Procs       int     `json:"procs"`
	PassageMax  int64   `json:"passage_rmrs_max"`
	PassageMean float64 `json:"passage_rmrs_mean"`
	Words       int     `json:"words"`
	// Abort storm (the Table 1 "Worst-case" workload); omitted for
	// non-abortable locks.
	Aborters      int   `json:"aborters,omitempty"`
	HolderPassage int64 `json:"storm_holder_rmrs,omitempty"`
	WaiterPassage int64 `json:"storm_waiter_rmrs,omitempty"`
	AbortedMax    int64 `json:"storm_aborted_rmrs_max,omitempty"`
}

// latencyEntry is one (lock, memory model, cost model) cell of the
// simulated-latency matrix: the queue-drain workload priced by a
// deterministic cost model, plus the abort storm's priced passages for
// abortable locks. Every field is bit-deterministic in (procs, cost,
// cost_seed) — the golden test gates these cells exactly.
type latencyEntry struct {
	Lock     string `json:"lock"`
	Model    string `json:"model"`
	Cost     string `json:"cost"`
	CostSeed int64  `json:"cost_seed"`
	// Queue drain: quantiles (harness.Series.Percentile, rank ⌊q·n⌋) of
	// per-passage simulated ns.
	Procs    int   `json:"procs"`
	QueueP50 int64 `json:"queue_sim_p50_ns"`
	QueueP95 int64 `json:"queue_sim_p95_ns"`
	QueueP99 int64 `json:"queue_sim_p99_ns"`
	QueueMax int64 `json:"queue_sim_max_ns"`
	// Abort storm; omitted for non-abortable locks.
	Aborters      int   `json:"aborters,omitempty"`
	HolderSim     int64 `json:"storm_holder_sim_ns,omitempty"`
	WaiterSim     int64 `json:"storm_waiter_sim_ns,omitempty"`
	AbortedSimMax int64 `json:"storm_aborted_sim_max_ns,omitempty"`
}

// splitCosts parses a comma-separated cost-model list, validating every
// name (and the constructions themselves) up front so a typo fails before
// any benchmark runs.
func splitCosts(list string, seed int64) ([]string, error) {
	var costs []string
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		cm, err := rmr.NewCostModel(name, seed)
		if err != nil {
			return nil, err
		}
		costs = append(costs, cm.Name())
	}
	if len(costs) == 0 {
		return nil, fmt.Errorf("-cost lists no models (known: %s)", strings.Join(rmr.CostModelNames(), ", "))
	}
	return costs, nil
}

// filterLocks resolves -matrix-locks against the registry: empty keeps the
// whole (sorted) registry, otherwise the listed locks in registry order,
// with unknown names rejected.
func filterLocks(list string) ([]locks.Info, error) {
	infos := locks.Infos()
	if strings.TrimSpace(list) == "" {
		return infos, nil
	}
	want := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		if name = strings.TrimSpace(name); name != "" {
			want[name] = true
		}
	}
	kept := []locks.Info{}
	for _, info := range infos {
		if want[info.Name] {
			kept = append(kept, info)
			delete(want, info.Name)
		}
	}
	if len(want) > 0 {
		// Sorted, so the error is the same on every run.
		unknown := make([]string, 0, len(want))
		for name := range want {
			unknown = append(unknown, strconv.Quote(name))
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("-matrix-locks: unknown lock %s (use -list-locks)", strings.Join(unknown, ", "))
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("-matrix-locks selected no locks")
	}
	return kept, nil
}

// matrixCell benchmarks one (lock, memory model) pair: the queue and storm
// workloads under the harness's gated fixed-seed schedule (rmr.Unit pricing,
// the nil fast path) for the RMR cells, then one gated priced run per cost
// model for the latency cells. Every cell is bit-deterministic — including
// the locks whose RMR counts follow the interleaving (CC-optimal locks
// spinning on remote words under DSM) — which is what lets the golden test
// gate the matrix exactly.
func matrixCell(info locks.Info, model rmr.Model, nprocs, aborters int,
	costs []string, costSeed int64) (matrixEntry, []latencyEntry, error) {
	algo := harness.Algo(info.Name)
	modelName := strings.ToLower(model.String())
	queue, err := harness.QueueWorkloadCost(model, rmr.Unit, algo, harness.DefaultW, nprocs)
	if err != nil {
		return matrixEntry{}, nil, fmt.Errorf("%s/%s: queue: %w", info.Name, model, err)
	}
	e := matrixEntry{
		Lock: info.Name, Model: modelName, Procs: nprocs,
		PassageMax: queue.Passages.Max(), PassageMean: queue.Passages.Mean(),
		Words: queue.Words,
	}
	if info.Abortable {
		storm, err := harness.AbortStormCost(model, rmr.Unit, algo, harness.DefaultW, aborters, false)
		if err != nil {
			return matrixEntry{}, nil, fmt.Errorf("%s/%s: storm: %w", info.Name, model, err)
		}
		e.Aborters = aborters
		e.HolderPassage = storm.HolderPassage
		e.WaiterPassage = storm.WaiterPassage
		e.AbortedMax = storm.Aborted.Max()
	}
	lat := make([]latencyEntry, 0, len(costs))
	for _, name := range costs {
		cm, err := rmr.NewCostModel(name, costSeed)
		if err != nil {
			return matrixEntry{}, nil, err
		}
		pq, err := harness.QueueWorkloadCost(model, cm, algo, harness.DefaultW, nprocs)
		if err != nil {
			return matrixEntry{}, nil, fmt.Errorf("%s/%s/cost=%s: queue: %w", info.Name, model, name, err)
		}
		le := latencyEntry{
			Lock: info.Name, Model: modelName, Cost: name, CostSeed: costSeed,
			Procs:    nprocs,
			QueueP50: pq.Sim.Percentile(0.50), QueueP95: pq.Sim.Percentile(0.95),
			QueueP99: pq.Sim.Percentile(0.99), QueueMax: pq.Sim.Max(),
		}
		if info.Abortable {
			ps, err := harness.AbortStormCost(model, cm, algo, harness.DefaultW, aborters, false)
			if err != nil {
				return matrixEntry{}, nil, fmt.Errorf("%s/%s/cost=%s: storm: %w", info.Name, model, name, err)
			}
			le.Aborters = aborters
			le.HolderSim = ps.HolderSim
			le.WaiterSim = ps.WaiterSim
			le.AbortedSimMax = ps.AbortedSim.Max()
		}
		lat = append(lat, le)
	}
	return e, lat, nil
}

// writeMatrix benchmarks every selected lock under every memory model it
// supports — the registry replaces any hand-listed lock set — and writes
// the result as JSON: {"locks": [...], "latency": [...]} in registry
// (sorted) order. Cells are independent deterministic runs, so they run on
// a worker pool and land in preallocated index slots: the output bytes are
// identical at any worker count.
func writeMatrix(path string, quick bool, costs []string, costSeed int64, workers int, lockFilter string) error {
	nprocs, aborters := 64, 30
	if quick {
		nprocs, aborters = 16, 6
	}
	infos, err := filterLocks(lockFilter)
	if err != nil {
		return err
	}
	type job struct {
		info  locks.Info
		model rmr.Model
	}
	jobs := []job{}
	for _, info := range infos {
		models := []rmr.Model{rmr.CC}
		if !info.CCOnly {
			models = append(models, rmr.DSM)
		}
		for _, model := range models {
			jobs = append(jobs, job{info, model})
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	entries := make([]matrixEntry, len(jobs))
	latency := make([][]latencyEntry, len(jobs))
	errs := make([]error, len(jobs))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			entries[i], latency[i], errs[i] = matrixCell(j.info, j.model, nprocs, aborters, costs, costSeed)
		}(i, j)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	flat := []latencyEntry{}
	for _, lat := range latency {
		flat = append(flat, lat...)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string]any{"locks": entries, "latency": flat}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// exploreEntry is one exhaustive-exploration record: an E8 configuration
// explored to the step bound at one point of the reduction lattice.
type exploreEntry struct {
	Config        string  `json:"config"`
	N             int     `json:"n"`
	W             int     `json:"w"`
	Aborters      int     `json:"aborters"`
	MaxSteps      int     `json:"maxsteps"`
	POR           bool    `json:"por"`
	Visited       bool    `json:"visited,omitempty"`
	Symmetry      bool    `json:"symmetry,omitempty"`
	Explored      int     `json:"explored"`
	Pruned        int     `json:"pruned"`
	Equivalent    int     `json:"equivalent"`
	VisitedHits   int     `json:"visited_hits,omitempty"`
	SymmetryCuts  int     `json:"symmetry_cuts,omitempty"`
	Replays       int     `json:"replays"`
	Seconds       float64 `json:"seconds"`
	ReplaysPerSec float64 `json:"replays_per_sec"`
	Exhausted     bool    `json:"exhausted"`
}

// writeExplore explores the E8-class configurations — the paper lock with
// n=2 contenders, with and without an aborter, plus the id-symmetric tas
// lock at n=3 where the symmetry reduction has leverage — to exhaustion at
// a fixed step bound, once per point of the reduction lattice (off, POR,
// POR+hash, POR+hash+symmetry), and writes the counts and throughput as
// JSON: {"explorer": [entry, ...]}. Every pass covers the same tree, so
// the replay ratios are each reduction's measured leverage; the golden
// test gates the counts exactly. Lattice points with visited caching run one
// worker: racing workers make the Pruned/VisitedHits split timing-
// dependent, and a gated artifact must be reproducible.
func writeExplore(path string, quick, por bool) error {
	type latticePoint struct{ por, vis, sym bool }
	lattice := []latticePoint{{}}
	if por {
		lattice = append(lattice,
			latticePoint{por: true},
			latticePoint{por: true, vis: true},
			latticePoint{por: true, vis: true, sym: true},
		)
	}
	paperSteps, tasSteps := 16, 14
	if quick {
		paperSteps, tasSteps = 12, 11
	}
	configs := []struct {
		algo     harness.Algo
		n, w     int
		aborters int
		maxSteps int
	}{
		{harness.AlgoPaper, 2, 4, 0, paperSteps},
		{harness.AlgoPaper, 2, 4, 1, paperSteps},
		{harness.AlgoTAS, 3, 4, 0, tasSteps},
	}
	entries := []exploreEntry{}
	for _, c := range configs {
		for _, pt := range lattice {
			red := rmr.NoReduction
			if pt.por {
				red = rmr.SleepSets
			}
			workers := runtime.GOMAXPROCS(0)
			if pt.vis {
				workers = 1
			}
			cfg := harness.ExploreConfig{
				Model: rmr.CC, Algo: c.algo, W: c.w, N: c.n, Aborters: c.aborters,
				MaxSteps: c.maxSteps, Workers: workers, Reduction: red,
				Visited: pt.vis, Symmetry: pt.sym,
			}
			start := time.Now()
			res, err := harness.Explore(cfg)
			secs := time.Since(start).Seconds()
			if err != nil {
				return fmt.Errorf("%s aborters=%d por=%v visited=%v sym=%v: %w",
					c.algo, c.aborters, pt.por, pt.vis, pt.sym, err)
			}
			e := exploreEntry{
				Config: fmt.Sprintf("%s CC n=%d w=%d aborters=%d", c.algo, c.n, c.w, c.aborters),
				N:      c.n, W: c.w, Aborters: c.aborters, MaxSteps: c.maxSteps,
				POR: pt.por, Visited: pt.vis, Symmetry: pt.sym,
				Explored: res.Explored, Pruned: res.Pruned, Equivalent: res.Equivalent,
				VisitedHits: res.VisitedHits, SymmetryCuts: res.SymmetryCuts,
				Replays: res.Replays(), Seconds: secs, Exhausted: res.Exhausted,
			}
			if secs > 0 {
				e.ReplaysPerSec = float64(res.Replays()) / secs
			}
			entries = append(entries, e)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string]any{"explorer": entries}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeProm runs a stats-instrumented abort storm on the paper's lock and
// writes the resulting counter matrix in the Prometheus text exposition
// format (version 0.0.4).
func writeProm(path string, quick bool) error {
	aborters := 64
	if quick {
		aborters = 8
	}
	_, snap, err := harness.AbortStormStats(rmr.CC, harness.AlgoPaper, harness.DefaultW, aborters, false)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := snap.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
