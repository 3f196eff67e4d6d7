package main

// Metric kinds in a results file. The kind decides how -compare treats a
// metric: end-to-end metrics against their BENCHMARK.json bound, exact
// ones for equality, the rest side by side without a verdict.
const (
	kindE2E      = "end_to_end"
	kindExact    = "exact"
	kindLayer    = "per_layer"
	kindNoise    = "noise"
	kindReported = "reported"
)

// metricDef names one metric with its unit and better direction.
// For layer metrics, moves names the end-to-end metric and workload the
// layer metric should move.
type metricDef struct {
	name, unit, better string
	moves              string
}

// endToEnd lists the end-to-end metrics every workload reports. A
// workload's "op" is its unit of work as its user sees it: one
// client.Acquire on the lockd workloads, one passage of the native lock,
// one verify pass of the simulator.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "op_p50_us", unit: "us", better: "lower"},
	{name: "op_p90_us", unit: "us", better: "lower"},
	{name: "ops_per_s", unit: "1/s", better: "higher"},
	{name: "cpu_us_per_op", unit: "us", better: "lower"},
	{name: "heap_peak_mib", unit: "MiB", better: "lower"},
}

// perLayer lists the metrics of the traced run, grouped by the module
// whose public calls they time. A workload that does not run through a
// layer reports 0 for its metrics.
var perLayer = []metricDef{
	{"client.self_us_p50", "us", "lower", "op_p50_us on lockd-*"},
	{"client.attempts_per_call", "count", "lower", "op_p50_us on lockd-*"},
	{"transport.rtt_self_us_p50", "us", "lower", "op_p50_us on lockd-*"},
	{"transport.rtt_self_us_p99", "us", "lower", "op_p90_us on lockd-*"},

	{"lockd.acquire_handler_us_p50", "us", "lower", "op_p50_us on lockd-*"},
	{"lockd.acquire_handler_us_p99", "us", "lower", "op_p90_us on lockd-*"},
	{"lockd.release_handler_us_p50", "us", "lower", "ops_per_s on lockd-*"},
	{"lockd.renew_handler_us_p50", "us", "lower", "ops_per_s on lockd-hotkey"},
	{"lockd.service_self_us_mean", "us", "lower", "op_p50_us, ops_per_s on lockd-churn"},
	{"lockd.evictions_per_acquire", "count/acquire", "lower", "op_p50_us, ops_per_s on lockd-churn"},
	{"lockd.live_locks", "count", "lower", "heap_peak_mib on lockd-*"},
	{"lockd.sheds", "count", "lower", "failed on lockd-*"},
	{"lockd.timeouts", "count", "lower", "failed on lockd-*"},
	{"lockd.fencing_rejects", "count", "lower", "failed on lockd-*"},
	{"lockd.expiries", "count", "lower", "failed on lockd-*"},

	{"abortable.acquire_ns_mean", "ns", "lower", "op_p90_us on lockd-hotkey, op_p50_us on native-mix"},
	{"abortable.acquire_ns_p99", "ns-pow2", "lower", "op_p90_us on lockd-hotkey and native-mix"},
	{"abortable.handoff_ns_p99", "ns-pow2", "lower", "op_p90_us on lockd-hotkey and native-mix"},
	{"abortable.park_wait_ns_p99", "ns-pow2", "lower", "op_p90_us on lockd-hotkey and native-mix"},
	{"abortable.spins_per_acquire", "count/acquire", "lower", "cpu_us_per_op on lockd-hotkey and native-mix"},
	{"abortable.yields_per_acquire", "count/acquire", "lower", "op_p90_us on lockd-hotkey and native-mix"},
	{"abortable.parks_per_acquire", "count/acquire", "lower", "op_p90_us on lockd-hotkey and native-mix"},
	{"abortable.switches_per_acquire", "count/acquire", "lower", "heap_peak_mib on native-mix"},
	{"abortable.switch_waits_per_acquire", "count/acquire", "lower", "op_p90_us on native-mix"},
	{"abortable.waiter_retires", "count", "lower", "op_p90_us on native-mix"},
	{"abortable.enter_ns_p50", "ns", "lower", "op_p50_us on native-mix"},
	{"abortable.enter_ns_p99", "ns", "lower", "op_p90_us on native-mix"},
	{"abortable.exit_ns_p50", "ns", "lower", "op_p50_us on native-mix"},
	{"abortable.exit_ns_p99", "ns", "lower", "op_p90_us on native-mix"},
	{"abortable.tryenter_abort_ratio", "ratio", "lower", "ops_per_s on native-mix"},

	{"runtime.alloc_bytes_per_op", "B", "lower", "heap_peak_mib on lockd-churn"},
	{"runtime.allocs_per_op", "count", "lower", "heap_peak_mib, cpu_us_per_op on lockd-churn"},
	{"runtime.gc_cycles_per_s", "1/s", "lower", "op_p90_us on lockd-churn"},
	{"runtime.sched_latency_us_p99", "us", "lower", "op_p90_us on every workload (flags a starved machine)"},

	{"rmr.doorway_rmrs", "rmr", "lower", "rmr.passage_max on sim-verify"},
	{"rmr.waiting_rmrs", "rmr", "lower", "rmr.passage_max on sim-verify"},
	{"rmr.exit_rmrs", "rmr", "lower", "rmr.passage_max on sim-verify"},
	{"rmr.abort_rmrs", "rmr", "lower", "rmr.abort_max on sim-verify"},
	{"rmr.words", "count", "lower", "heap_peak_mib on sim-verify"},
	{"rmr.passage_max", "rmr", "lower", "op_p50_us on sim-verify (the paper's cost measure)"},
	{"rmr.abort_max", "rmr", "lower", "op_p50_us on sim-verify (the paper's cost measure)"},
	{"rmr.sim_passage_p99_ns", "sim-ns", "lower", "op_p50_us on sim-verify (priced by the ccnuma model)"},
	{"rmr.sim_abort_max_ns", "sim-ns", "lower", "op_p50_us on sim-verify (priced by the ccnuma model)"},

	{"explorer.replays", "count", "lower", "op_p50_us on sim-verify"},
	{"explorer.explored", "count", "lower", "op_p50_us on sim-verify"},
	{"explorer.pruned", "count", "lower", "op_p50_us on sim-verify"},
	{"explorer.equivalent", "count", "higher", "op_p50_us on sim-verify"},
	{"explorer.visited_hits", "count", "higher", "op_p50_us on sim-verify"},
	{"explorer.replays_per_s", "1/s", "higher", "op_p50_us, ops_per_s on sim-verify"},
	{"explorer.cut_ratio", "ratio", "higher", "op_p50_us on sim-verify"},
	{"explorer.verify_s", "s", "lower", "op_p50_us on sim-verify"},

	{"control.mutex_passage_ns_p50", "ns", "lower", "none: a sync.Mutex control, never a target"},
	{"loadgen.timer_late_us_p50", "us", "lower", "none: how late a 200 us sleep wakes"},

	{"overhead.setup_s", "s", "lower", "none: traced minus untraced round"},
	{"overhead.op_p50_us", "us", "lower", "none: traced minus untraced round"},
	{"overhead.op_p90_us", "us", "lower", "none: traced minus untraced round"},
	{"overhead.ops_per_s", "1/s", "lower", "none: untraced minus traced round"},
	{"overhead.cpu_us_per_op", "us", "lower", "none: traced minus untraced round"},
	{"overhead.heap_peak_mib", "MiB", "lower", "none: traced minus untraced round"},
}

// reported lists metrics every report and results file carries but no
// bound gates. op_p99_us is the tail the end-to-end set would name first,
// but on native-mix about one acquire in 200 parks (the p99 park lasts
// milliseconds here), so over ten runs its p99 spread 39% where the p90
// spread 7%. fail_ratio is 0 on every workload by design; the summary
// line's failed count carries it.
var reported = []metricDef{
	{name: "op_p99_us", unit: "us", better: "lower"},
	{name: "fail_ratio", unit: "ratio", better: "lower"},
}

// allDefs lists every metric in report order.
var allDefs = append(append(append([]metricDef{}, endToEnd...), reported...), perLayer...)

func defOf(name string) (metricDef, bool) {
	i := metricOrder(name)
	if i == len(allDefs) {
		return metricDef{}, false
	}
	return allDefs[i], true
}

// metricOrder is a metric's position in report order.
func metricOrder(name string) int {
	for i, d := range allDefs {
		if d.name == name {
			return i
		}
	}
	return len(allDefs)
}
