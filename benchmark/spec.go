package main

// workloadDef is one of the five fixed workloads.
type workloadDef struct {
	name string
	why  string // one line, printed in the report header
	// periods is the timed period count at the default -seconds 20; the
	// counts of all five scale by the one factor seconds/20.
	periods int
	// setups is how many times the end-to-end pass sets the workload up;
	// setup_s is the median.
	setups int
	// spansPerPeriod sizes the traced pass's span buffer.
	spansPerPeriod int
	cluster        bool
	// gen makes the workload's inputs for periods periods (warm-up
	// included) from the seed; nil where the workload has none.
	gen   func(seed int64, periods int) inputs
	build func(*pass) (runner, error)
}

var workloadDefs = []*workloadDef{
	{
		name:    "node_steady",
		why:     "paper Table II mix, all busy: monitor reads dominate, caps converge, apply and auction idle",
		periods: 10000, setups: 15, spansPerPeriod: 420, build: buildNodeSteady,
	},
	{
		name:    "node_dynamic",
		why:     "Table V mix on seeded idle/partial/saturated phases: triggers, credits, auction and quota writes do work",
		periods: 10000, setups: 15, spansPerPeriod: 400, build: buildNodeDynamic,
		gen: func(seed int64, periods int) inputs { return phaseInputs(seed, len(tableV()), periods) },
	},
	{
		name:    "node_linux_files",
		why:     "platform.Linux over a tree of regular files, robustness layer armed: real pread/pwrite/ReadDir, no simulator",
		periods: 20000, setups: 9, spansPerPeriod: 440, build: buildNodeFiles,
		gen: func(seed int64, periods int) inputs { return phaseInputs(seed, len(tableII()), periods) },
	},
	{
		name:    "cluster_fleet",
		why:     "16 chetemi nodes each carrying the Table II mix, metrics armed: fleet stepping through the worker pool",
		periods: 1000, setups: 5, spansPerPeriod: 4, cluster: true, build: buildFleet,
	},
	{
		name:    "cluster_churn",
		why:     "16 nodes under seeded deploy/undeploy/migrate/resize/rebalance and planned blackouts: the control plane",
		periods: 2000, setups: 7, spansPerPeriod: 20, cluster: true, build: buildChurn, gen: churnInputs,
	},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloadDefs {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricDef is one named metric.
type metricDef struct {
	name   string
	unit   string
	higher bool // better: higher
	// bound is the share of the baseline by which an end-to-end metric
	// may get worse before a change counts as a regression — the value
	// BENCHMARK.json carries. abs, when set, is an absolute allowance
	// -selfcheck applies when it is the larger of the two.
	bound float64
	abs   float64
	// exact marks a metric that is a pure function of commit and seed:
	// two runs of one seed must agree to the last bit.
	exact bool
	// gated marks an end-to-end metric BENCHMARK.json lists under
	// end_to_end, where the driver bounds it: every workload reports it,
	// it is never 0, and the reference machine can resolve its bound.
	gated bool
	// layer marks the metrics of the perLayer table (set in init).
	layer bool
}

func init() {
	for i := range perLayer {
		perLayer[i].layer = true
	}
}

// endToEnd are the metrics a user of the system sees: the issue's eleven,
// wall times as measured, and the two normalised costs of clock.go.
// BENCHMARK.json lists the gated ones under end_to_end and the others
// under per_layer, unbounded: failed_share (0 on every healthy run) and
// the churn-only latencies, because the driver wants every end_to_end
// metric non-zero on every workload; the raw step time and throughput,
// because the host's clock moves them by more than the largest bound the
// driver accepts, which is what the normalised costs are for; and
// step_p99_us, whose run-to-run spread is wider still. The bounds are
// what the reference machine can resolve (README.md, "Bounds").
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25, abs: 0.05, gated: true},
	{name: "step_p50_us", unit: "us"},
	{name: "step_p99_us", unit: "us"},
	{name: "node_periods_per_s", unit: "1/s", higher: true},
	{name: "step_p50_norm", unit: "kernels", bound: 0.25, gated: true},
	{name: "node_period_norm", unit: "kernels", bound: 0.25, gated: true},
	{name: "sla_met_share", unit: "ratio", higher: true, bound: 0.025, exact: true, gated: true},
	{name: "heap_mb", unit: "MB", bound: 0.10, gated: true},
	{name: "used_nodes_mean", unit: "nodes", bound: 0.05, exact: true, gated: true},
	{name: "failed_share", unit: "ratio", exact: true},
	{name: "admit_p50_us", unit: "us"},
	{name: "admit_p99_us", unit: "us"},
	{name: "migrate_p50_us", unit: "us"},
}

// perLayer are the metrics of single layers, module name first. The †
// ones are also printed by the end-to-end pass.
var perLayer = []metricDef{
	{name: "host.kernel_us", unit: "us"},
	{name: "host.advance_us", unit: "us"},
	{name: "host.advance_share", unit: "ratio"},
	{name: "platform.listvms_us", unit: "us"},
	{name: "platform.usage_us", unit: "us"},
	{name: "platform.tid_us", unit: "us"},
	{name: "platform.lastcpu_us", unit: "us"},
	{name: "platform.freq_us", unit: "us"},
	{name: "platform.read_calls", unit: "count"},
	{name: "platform.setmax_us", unit: "us"},
	{name: "platform.write_calls", unit: "count"},
	{name: "platform.write_skipped_share", unit: "ratio", higher: true},
	{name: "platform.failed_calls", unit: "count"},
	{name: "core.monitor_us", unit: "us"},
	{name: "core.estimate_us", unit: "us"},
	{name: "core.enforce_us", unit: "us"},
	{name: "core.auction_us", unit: "us"},
	{name: "core.distribute_us", unit: "us"},
	{name: "core.apply_us", unit: "us"},
	{name: "core.monitor_self_us", unit: "us"},
	{name: "core.apply_self_us", unit: "us"},
	{name: "core.sync_us", unit: "us"},
	{name: "core.sync_self_us", unit: "us"},
	{name: "core.post_us", unit: "us"},
	{name: "core.degraded_vcpus", unit: "count", exact: true},
	{name: "core.retries", unit: "count", exact: true},
	{name: "core.overruns", unit: "count"},
	{name: "core.snapshot_us", unit: "us"},
	{name: "core.snapshot_bytes", unit: "bytes"},
	{name: "core.restore_us", unit: "us"},
	{name: "cluster.nonctrl_us", unit: "us"},
	{name: "cluster.pool_speedup", unit: "ratio", higher: true},
	{name: "cluster.deploy_us", unit: "us"},
	{name: "cluster.undeploy_us", unit: "us"},
	{name: "cluster.migrate_us", unit: "us"},
	{name: "cluster.resize_us", unit: "us"},
	{name: "cluster.rebalance_us", unit: "us"},
	{name: "cluster.health_us", unit: "us"},
	{name: "cluster.admit_ratio", unit: "ratio", higher: true, exact: true},
	{name: "cluster.migrations", unit: "count", exact: true},
	{name: "cluster.evacuated", unit: "count", exact: true},
	{name: "cluster.stranded", unit: "count", exact: true},
	{name: "placement.place_us", unit: "us"},
	{name: "vm.provision_us", unit: "us"},
	{name: "vm.destroy_us", unit: "us"},
	{name: "metrics.write_text_us", unit: "us"},
	{name: "metrics.series", unit: "count"},
	{name: "go.allocs_per_period", unit: "count"},
	{name: "go.alloc_bytes_per_period", unit: "bytes"},
	{name: "go.gc_cycles", unit: "count"},
	{name: "go.gc_pause_us", unit: "us"},
	{name: "go.gomaxprocs", unit: "count", higher: true},
	{name: "trace.overhead_pct", unit: "%"},
	{name: "trace.coverage", unit: "ratio", higher: true},
}
