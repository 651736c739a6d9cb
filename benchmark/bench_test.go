package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"

	"vfreq/internal/host"
	"vfreq/internal/platform"
	"vfreq/internal/vm"
)

func testOptions(t *testing.T, periods int) options {
	return options{seed: 7, scale: 1, periods: periods, setups: 1, tmpRoot: t.TempDir()}
}

func simHost(t *testing.T) *platform.Sim {
	t.Helper()
	machine, err := host.New(host.Chetemi())
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := vm.NewManager(machine)
	if err != nil {
		t.Fatal(err)
	}
	return platform.NewSim(mgr)
}

// The traced decorator must expose exactly the optional capabilities of
// the host it wraps, or the controller would batch, shard or adopt
// quotas differently traced and untraced.
func TestTracedHostForwardsCapabilities(t *testing.T) {
	for name, inner := range map[string]fullHost{
		"sim":   simHost(t),
		"linux": &platform.Linux{Cores: 2, MaxFreqMHz: 2400},
	} {
		var plain, traced platform.Host = inner, &tracedHost{inner: inner, tr: newTracer(16)}
		_, ib := plain.(platform.BatchQuotaWriter)
		_, wb := traced.(platform.BatchQuotaWriter)
		_, it := plain.(platform.Topology)
		_, wt := traced.(platform.Topology)
		_, iq := plain.(platform.QuotaReader)
		_, wq := traced.(platform.QuotaReader)
		if ib != wb || it != wt || iq != wq {
			t.Errorf("%s: inner has batch=%v topology=%v quota=%v, traced has %v %v %v", name, ib, it, iq, wb, wt, wq)
		}
	}
}

func TestTracedHostCountsOnlyTimedPeriods(t *testing.T) {
	tr := newTracer(16)
	h := &tracedHost{inner: simHost(t), tr: tr}
	if _, err := h.UsageUs("absent", 0); err == nil {
		t.Fatal("reading an absent VM succeeded")
	}
	if h.failed != 0 {
		t.Fatalf("failure outside a timed period counted: %d", h.failed)
	}
	tr.period = 0
	_, _ = h.UsageUs("absent", 0)
	_ = h.BatchSetMax("absent", make([]platform.VCPUQuota, 3))
	if h.failed != 2 || h.writes != 3 {
		t.Fatalf("failed=%d writes=%d, want 2 and 3", h.failed, h.writes)
	}
	agg := tr.aggregate()
	if agg[spUsage].count != 1 || agg[spSetMax].count != 1 {
		t.Fatalf("aggregate counted %d usage and %d setmax spans, want the 1 timed each", agg[spUsage].count, agg[spSetMax].count)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	tr := newTracer(8)
	tr.period = 0
	parent := tr.add(spMonitor, -1, 0, 100)
	tr.add(spUsage, parent, 10, 30)
	tr.add(spTID, parent, 30, 60)
	agg := tr.aggregate()
	if agg[spMonitor].total != 100 || agg[spMonitor].self != 50 {
		t.Fatalf("monitor total=%d self=%d, want 100 and 50", agg[spMonitor].total, agg[spMonitor].self)
	}
}

// Input generators are pure functions of the seed.
func TestGeneratorsArePureFunctionsOfSeed(t *testing.T) {
	if a, b := phasesDigest(genPhases(1, 28, 500)), phasesDigest(genPhases(1, 28, 500)); a != b {
		t.Errorf("genPhases: same seed, digests %x and %x", a, b)
	}
	if a, b := phasesDigest(genPhases(1, 28, 500)), phasesDigest(genPhases(2, 28, 500)); a == b {
		t.Errorf("genPhases: seeds 1 and 2 give the same digest %x", a)
	}
	if a, b := genChurn(1, 300).digest(), genChurn(1, 300).digest(); a != b {
		t.Errorf("genChurn: same seed, digests %x and %x", a, b)
	}
	if a, b := genChurn(1, 300).digest(), genChurn(2, 300).digest(); a == b {
		t.Errorf("genChurn: seeds 1 and 2 give the same digest %x", a)
	}
}

func TestChurnScheduleShape(t *testing.T) {
	s := genChurn(3, 300)
	if len(s.initial) != churnInitialVMs {
		t.Fatalf("%d initial deploys, want %d", len(s.initial), churnInitialVMs)
	}
	live := map[int]bool{}
	for _, op := range s.initial {
		live[op.vm] = true
	}
	counts := map[int]int{}
	for k, ops := range s.periods {
		for _, op := range ops {
			counts[op.kind]++
			switch op.kind {
			case opDeploy:
				live[op.vm] = true
			case opUndeploy:
				if !live[op.vm] {
					t.Fatalf("period %d undeploys VM %d, which is not deployed", k, op.vm)
				}
				delete(live, op.vm)
			case opMigrate, opResize:
				if !live[op.vm] {
					t.Fatalf("period %d operates on VM %d, which is not deployed", k, op.vm)
				}
			}
		}
	}
	want := map[int]int{opDeploy: 4 * 300, opUndeploy: 4 * 300, opMigrate: 2 * 300, opRebalance: 30, opBlackoutOn: 2, opBlackoutOff: 2}
	for kind, n := range want {
		if counts[kind] != n {
			t.Errorf("%d operations of kind %d, want %d", counts[kind], kind, n)
		}
	}
	if counts[opResize] < 55 || counts[opResize] > 60 {
		t.Errorf("%d resizes in 300 periods, want one every %d", counts[opResize], churnResize)
	}
}

func TestPercentile(t *testing.T) {
	v := make([]int64, 1000)
	for i := range v {
		v[i] = int64(i + 1)
	}
	if got := percentile(v, 0.5); got != 500 {
		t.Errorf("p50 = %d, want 500", got)
	}
	if got := percentile(v, 0.99); got != 990 {
		t.Errorf("p99 = %d, want 990: ten samples lie beyond it", got)
	}
	if got := percentile(v[:1], 0.99); got != 1 {
		t.Errorf("p99 of one sample = %d", got)
	}
}

// Smoke: every workload, untraced and traced, on a few periods. The
// traced and the untraced pass must end in the same state digest (caps,
// wallets, cycles): tracing must not change what the controller does.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, wl := range workloadDefs {
		res, err := measure(wl, testOptions(t, 30), true)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if res.failed() != 0 {
			t.Errorf("%s: %d of %d operations and checks failed: %v %v", wl.name, res.failed(), res.attempted(),
				res.e2e.failMsgs, res.traced.failMsgs)
		}
		if res.e2e.stateDigest == 0 || res.e2e.stateDigest != res.traced.stateDigest {
			t.Errorf("%s: untraced state %x, traced %x", wl.name, res.e2e.stateDigest, res.traced.stateDigest)
		}
		for _, m := range driverMetrics(false) {
			if v, ok := res.value(&m); !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, present=%v; must be positive everywhere", wl.name, m.name, v, ok)
			}
		}
		if c := res.traced.values["trace.coverage"]; c < 0.9 || c > 1 {
			t.Errorf("%s: trace.coverage = %v", wl.name, c)
		}
		var out bytes.Buffer
		res.print(&out)
		if !strings.Contains(out.String(), "state digest") {
			t.Errorf("%s: report lacks the state digest:\n%s", wl.name, out.String())
		}
	}
}

// The breakdown of node_steady sums to the traced wall time.
func TestBreakdownSumsToWall(t *testing.T) {
	p, err := runPass(workloadByName("node_steady"), testOptions(t, 50), true)
	if err != nil {
		t.Fatal(err)
	}
	v := p.values
	sum := v["host.advance_us"] + v["platform.listvms_us"] + v["platform.usage_us"] + v["platform.tid_us"] +
		v["platform.lastcpu_us"] + v["platform.freq_us"] + v["platform.setmax_us"] +
		v["core.monitor_self_us"] + v["core.apply_self_us"] + v["core.sync_self_us"] +
		v["core.estimate_us"] + v["core.enforce_us"] + v["core.auction_us"] + v["core.distribute_us"] + v["core.post_us"]
	wall := us(p.tr.aggregate()[spPeriod].total) / float64(p.periods)
	if sum < 0.95*wall || sum > 1.0001*wall {
		t.Errorf("breakdown sums to %.1f us of a %.1f us period", sum, wall)
	}
	if v["core.monitor_self_us"] <= 0 || v["platform.read_calls"] != 321 {
		t.Errorf("monitor self %.2f us, %v reads per period (want 4 per vCPU + ListVMs = 321)",
			v["core.monitor_self_us"], v["platform.read_calls"])
	}
}

// The command line, as the driver uses it.
func TestRunPrintsDriverResult(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", "node_dynamic", "--seed", "5", "--seconds", "20", "--trace", trace,
			"-tmp", t.TempDir(), "-trace-out", t.TempDir() + "/spans.csv"}, &stdout, &stderr, options{periods: 30, setups: 1})
		if code != 0 {
			t.Fatalf("exit %d: %s\n%s", code, stderr.String(), stdout.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var got struct {
			Correct   bool
			Attempted int64
			Failed    int64
			Metrics   map[string]jsonMetric
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
		}
		want := driverMetrics(trace == "1")
		if !got.Correct || got.Failed != 0 || got.Attempted < 1 || len(got.Metrics) != len(want) {
			t.Fatalf("trace %s: correct=%v failed=%d attempted=%d, %d metrics (want %d)", trace,
				got.Correct, got.Failed, got.Attempted, len(got.Metrics), len(want))
		}
		for _, m := range want {
			if g, ok := got.Metrics[m.name]; !ok || g.Unit != m.unit {
				t.Errorf("trace %s: metric %s: %+v, present=%v", trace, m.name, g, ok)
			}
		}
		if !strings.Contains(lines[0], "seed 5") || !strings.Contains(lines[0], runtime.Version()) {
			t.Errorf("header lacks seed and Go version: %s", lines[0])
		}
	}
	var stdout, stderr bytes.Buffer
	for _, bad := range [][]string{{"-workload", "nope"}, {"-trace", "2"}, {"-seconds", "10"}, {"-periods", "30"}} {
		if code := run(bad, &stdout, &stderr, options{}); code == 0 {
			t.Errorf("%v accepted", bad)
		}
	}
}

func TestSingleProcWarnsAndMarksPoolSpeedup(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "cluster_churn", "-trace", "1", "-tmp", t.TempDir()}, &stdout, &stderr, options{periods: 10, setups: 1})
	if code != 0 {
		t.Fatalf("exit %d: %s\n%s", code, stderr.String(), stdout.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "WARNING: GOMAXPROCS = 1") {
		t.Error("no warning at GOMAXPROCS = 1")
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "cluster.pool_speedup") && !strings.HasPrefix(line, "{") && !strings.Contains(line, "n/a") {
			t.Errorf("pool speed-up not marked n/a: %s", line)
		}
	}
}

func TestSelfcheckCompare(t *testing.T) {
	wl := workloadByName("cluster_churn")
	mk := func() *pass {
		return &pass{wl: wl, in: inputs{digest: 1}, stateDigest: 2, values: map[string]float64{
			"setup_s": 0.10, "step_p50_us": 1000, "step_p99_us": 2000, "node_periods_per_s": 3000,
			"step_p50_norm": 14, "node_period_norm": 4,
			"sla_met_share": 0.8, "heap_mb": 10, "used_nodes_mean": 14, "cluster.migrations": 100,
		}}
	}
	var out bytes.Buffer
	if bad := compare(&out, wl, mk(), mk()); bad != 0 {
		t.Fatalf("identical runs: %d comparisons out of bounds\n%s", bad, out.String())
	}
	b := mk()
	b.values["step_p50_norm"] = 14.5 // within 25 %
	b.values["setup_s"] = 0.14       // +40 %, but within the 0.05 s floor
	b.values["step_p50_us"] = 1400   // wall times move with the host's clock:
	b.values["step_p99_us"] = 2500   // printed, not gated
	b.values["sla_met_share"] = 0.81 // deterministic: must not move
	b.values["cluster.migrations"] = 101
	b.stateDigest = 3
	out.Reset()
	if bad := compare(&out, wl, mk(), b); bad != 3 {
		t.Fatalf("%d comparisons out of bounds, want 3 (sla, migrations, digest)\n%s", bad, out.String())
	}
	b = mk()
	b.values["step_p50_norm"] = 18 // beyond 25 %
	if bad := compare(&out, wl, mk(), b); bad != 1 {
		t.Fatalf("%d comparisons out of bounds, want 1 (p50)\n%s", bad, out.String())
	}
}

func TestSelfcheckRuns(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-selfcheck", "-workload", "node_dynamic", "-tmp", t.TempDir()}, &stdout, &stderr, options{periods: 40, setups: 1})
	if code != 0 && code != 1 { // timing at 40 periods may exceed a bound; determinism may not
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "equal") || strings.Contains(out, "DIFFER") {
		t.Errorf("two runs of one seed do not end in equal digests:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "exact") && strings.Contains(line, "EXCEEDED") {
			t.Errorf("deterministic metric differs between two runs: %s", line)
		}
	}
}

// BENCHMARK.json must list exactly what the program prints.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads listed, %d defined", len(spec.Workloads), len(workloadDefs))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadDefs[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars), want %q", i, w.Name, len(w.Why), workloadDefs[i].name)
		}
	}
	better := func(m metricDef) string {
		if m.higher {
			return "higher"
		}
		return "lower"
	}
	match := func(kind string, listed []metric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: %d listed, %d defined", kind, len(listed), len(defs))
		}
		for i, m := range listed {
			d := defs[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != better(d) {
				t.Errorf("%s %d: %+v, want %s %s %s", kind, i, m, d.name, d.unit, better(d))
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	match("end_to_end", spec.EndToEnd, driverMetrics(false), true)
	match("per_layer", spec.PerLayer, driverMetrics(true), false)
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 || len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", spec.RunSeconds, spec.Paths)
	}
}
