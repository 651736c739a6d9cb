package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vfreq/internal/metrics"
	"vfreq/internal/workload"
)

func TestExampleScenarioParses(t *testing.T) {
	sc, err := parseScenario([]byte(exampleScenario))
	if err != nil {
		t.Fatalf("example scenario invalid: %v", err)
	}
	if sc.Node != "chetemi" || len(sc.VMs) != 3 || !sc.Control {
		t.Fatalf("example scenario content unexpected: %+v", sc)
	}
}

// A scenario naming a knob that does not exist — removed, or misspelt —
// must be refused with the field named, not run under other settings.
func TestScenarioRejectsUnknownFields(t *testing.T) {
	for _, field := range []string{"auction_shards", "estimate_shards", "monitor_workers", "step_workers", "seed", "retry_backoff_max_us"} {
		raw := fmt.Sprintf(`{"node": "chetemi", "duration_s": 5, %q: 4, "vms": []}`, field)
		_, err := parseScenario([]byte(raw))
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("scenario with %q: error %v, want one naming the field", field, err)
		}
	}
	if _, err := parseScenario([]byte(`{"vms": [{"name": "a", "vcpu": 2}]}`)); err == nil || !strings.Contains(err.Error(), "vcpu") {
		t.Errorf("unknown VM field: error %v, want one naming it", err)
	}
	// A fault site that does not exist (BatchSetMax was removed) parses
	// but refuses to run, listing the sites that do.
	sc, err := parseScenario([]byte(`{"node": "chetemi", "duration_s": 1, "control": true,
		"fault_rate": 0.1, "fault_sites": ["BatchSetMax"], "vms": []}`))
	if err != nil {
		t.Fatal(err)
	}
	err = runSim(sc, filepath.Join(t.TempDir(), "x.csv"), "", checkpointOpts{}, metrics.NewRegistry())
	const valid = "valid sites: ListVMs, UsageUs, SetMax, ClearMax, ReadMax, SetBurst, ThreadID, LastCPU, CoreFreqMHz"
	if err == nil || !strings.Contains(err.Error(), `"BatchSetMax"`) || !strings.Contains(err.Error(), valid) {
		t.Errorf("fault site BatchSetMax: error %v, want one naming it and listing the %s", err, valid)
	}
}

// A known field or flag the selected mode does not read is refused with
// the field or flag and the mode named, one row per combination; each
// mode accepts everything it does read.
func TestValidateMode(t *testing.T) {
	none := modeFlags{rebalanceEvery: -1}
	with := func(edit func(*modeFlags)) modeFlags {
		f := none
		edit(&f)
		return f
	}
	linux := with(func(f *modeFlags) { f.linux = true })
	faults := Scenario{FaultRate: 0.1, FaultDelayRate: 0.1, FaultDelayUs: 50, FaultSites: []string{"UsageUs"}, FaultSeed: 7}
	for _, tc := range []struct {
		name  string
		sc    Scenario
		flags modeFlags
		want  []string // substrings of the error; nil = accepted
	}{
		{"sim accepts faults, -csv, -snapshot, -checkpoint", faults,
			with(func(f *modeFlags) { f.csv, f.snapshot, f.checkpoint = "o.csv", "s.json", "c.json" }), nil},
		{"cluster accepts its knobs and -csv", Scenario{Nodes: 2, RebalanceEvery: 5},
			with(func(f *modeFlags) { f.csv, f.rebalanceEvery = "o.csv", 0 }), nil},
		{"linux accepts -checkpoint", Scenario{HostRetries: 2},
			with(func(f *modeFlags) { f.linux, f.checkpoint = true, "c.json" }), nil},

		{"linux cluster", Scenario{Nodes: 2}, linux, []string{"nodes", "-linux"}},
		{"cluster fault_rate", Scenario{Nodes: 2, FaultRate: 0.1}, none, []string{"fault_rate", "cluster"}},
		{"cluster fault_delay_rate", Scenario{Nodes: 2, FaultDelayRate: 0.1}, none, []string{"fault_delay_rate", "cluster"}},
		{"cluster fault_delay_us", Scenario{Nodes: 2, FaultDelayUs: 50}, none, []string{"fault_delay_us", "cluster"}},
		{"cluster fault_sites", Scenario{Nodes: 2, FaultSites: []string{"SetMax"}}, none, []string{"fault_sites", "cluster"}},
		{"cluster fault_seed", Scenario{Nodes: 2, FaultSeed: 3}, none, []string{"fault_seed", "cluster"}},
		{"cluster -checkpoint", Scenario{Nodes: 2}, with(func(f *modeFlags) { f.checkpoint = "c.json" }), []string{"-checkpoint", "cluster"}},
		{"cluster -snapshot", Scenario{Nodes: 2}, with(func(f *modeFlags) { f.snapshot = "s.json" }), []string{"-snapshot", "cluster"}},
		{"linux fault_rate", Scenario{FaultRate: 0.1}, linux, []string{"fault_rate", "-linux"}},
		{"linux fault_delay_rate", Scenario{FaultDelayRate: 0.1}, linux, []string{"fault_delay_rate", "-linux"}},
		{"linux fault_delay_us", Scenario{FaultDelayUs: 50}, linux, []string{"fault_delay_us", "-linux"}},
		{"linux fault_sites", Scenario{FaultSites: []string{"SetMax"}}, linux, []string{"fault_sites", "-linux"}},
		{"linux fault_seed", Scenario{FaultSeed: 3}, linux, []string{"fault_seed", "-linux"}},
		{"linux -csv", Scenario{}, with(func(f *modeFlags) { f.linux, f.csv = true, "o.csv" }), []string{"-csv", "-linux"}},
		{"linux -snapshot", Scenario{}, with(func(f *modeFlags) { f.linux, f.snapshot = true, "s.json" }), []string{"-snapshot", "-linux"}},
		{"linux rebalance_every", Scenario{RebalanceEvery: 5}, linux, []string{"rebalance_every", "-linux"}},
		{"sim rebalance_every", Scenario{RebalanceEvery: 5}, none, []string{"rebalance_every", "single-node"}},
		{"sim -rebalance-every", Scenario{}, with(func(f *modeFlags) { f.rebalanceEvery = 3 }), []string{"-rebalance-every", "single-node"}},
	} {
		err := validateMode(tc.sc, tc.flags)
		if tc.want == nil {
			if err != nil {
				t.Errorf("%s: rejected: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		for _, sub := range tc.want {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("%s: error %q does not name %q", tc.name, err, sub)
			}
		}
	}
}

func TestNodeSpec(t *testing.T) {
	for _, name := range []string{"chetemi", "chiclet"} {
		spec, err := nodeSpec(Scenario{Node: name})
		if err != nil || spec.Name != name {
			t.Fatalf("nodeSpec(%s) = %v, %v", name, spec.Name, err)
		}
	}
	custom, err := nodeSpec(Scenario{Cores: 8, MaxMHz: 3000, MemoryGB: 32})
	if err != nil || custom.Cores != 8 || custom.MaxMHz != 3000 {
		t.Fatalf("custom spec = %+v, %v", custom, err)
	}
	if _, err := nodeSpec(Scenario{Node: "cray"}); err == nil {
		t.Fatal("unknown node accepted")
	}
	if _, err := nodeSpec(Scenario{Cores: 0, MaxMHz: 3000, MemoryGB: 32}); err == nil {
		t.Fatal("invalid custom spec accepted")
	}
}

func TestBuildWorkload(t *testing.T) {
	srcs, err := buildWorkload(ScenarioVM{VCPUs: 2, Workload: "busy"})
	if err != nil || len(srcs) != 2 {
		t.Fatalf("busy: %d sources, %v", len(srcs), err)
	}
	if d := srcs[0].Demand(0, 1000); d != 1 {
		t.Fatalf("busy demand = %v", d)
	}
	srcs, err = buildWorkload(ScenarioVM{VCPUs: 1, Workload: "idle"})
	if err != nil || srcs != nil {
		t.Fatalf("idle: %v, %v", srcs, err)
	}
	srcs, err = buildWorkload(ScenarioVM{VCPUs: 4, Workload: "compress", GCycles: 10, Runs: 2})
	if err != nil || len(srcs) != 4 {
		t.Fatalf("compress: %d sources, %v", len(srcs), err)
	}
	srcs, err = buildWorkload(ScenarioVM{VCPUs: 1, Workload: "openssl"})
	if err != nil || len(srcs) != 1 {
		t.Fatalf("openssl defaults: %v, %v", srcs, err)
	}
	srcs, err = buildWorkload(ScenarioVM{VCPUs: 1, Workload: "bursty:20:0.3", StartS: 5})
	if err != nil || len(srcs) != 1 {
		t.Fatalf("bursty: %v, %v", srcs, err)
	}
	// The delayed bursty source is idle before its start.
	if d := srcs[0].Demand(1_000_000, 1000); d != 0 {
		t.Fatalf("bursty before start: %v", d)
	}
	if _, err := buildWorkload(ScenarioVM{VCPUs: 1, Workload: "bursty:x"}); err == nil {
		t.Fatal("malformed bursty accepted")
	}
	if _, err := buildWorkload(ScenarioVM{VCPUs: 1, Workload: "fib"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	var _ []workload.Source = srcs
}

func TestControllerConfigOverrides(t *testing.T) {
	cfg := controllerConfig(Scenario{
		Control:         true,
		IncreaseTrigger: 0.9, IncreaseFactor: 0.5,
		DecreaseTrigger: 0.4, DecreaseFactor: 0.1,
	})
	if cfg.IncreaseTrigger != 0.9 || cfg.IncreaseFactor != 0.5 ||
		cfg.DecreaseTrigger != 0.4 || cfg.DecreaseFactor != 0.1 {
		t.Fatalf("overrides not applied: %+v", cfg)
	}
	if !cfg.ControlEnabled {
		t.Fatal("control flag lost")
	}
	// Zero values keep the paper defaults.
	def := controllerConfig(Scenario{})
	if def.IncreaseTrigger != 0.95 || def.DecreaseFactor != 0.05 {
		t.Fatalf("defaults lost: %+v", def)
	}
}

func TestRunSimProducesCSV(t *testing.T) {
	sc := Scenario{
		Node:      "chetemi",
		DurationS: 5,
		Control:   true,
		VMs: []ScenarioVM{
			{Name: "web", VCPUs: 2, FreqMHz: 500, MemoryGB: 2, Workload: "busy"},
			{Name: "batch", VCPUs: 4, FreqMHz: 1800, MemoryGB: 8, Workload: "busy"},
		},
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "out.csv")
	snap := filepath.Join(dir, "snap.json")
	if err := runSim(sc, out, snap, checkpointOpts{}, metrics.NewRegistry()); err != nil {
		t.Fatal(err)
	}
	// The snapshot is valid JSON with both VMs.
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	var snapData map[string]any
	if err := json.Unmarshal(raw, &snapData); err != nil {
		t.Fatalf("snapshot not JSON: %v", err)
	}
	if vms, ok := snapData["vms"].([]any); !ok || len(vms) != 2 {
		t.Fatalf("snapshot vms = %v", snapData["vms"])
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines, comments := splitCSV(string(data))
	if len(lines) != 6 { // header + 5 periods
		t.Fatalf("CSV has %d data lines, want 6:\n%s", len(lines), data)
	}
	if !strings.HasPrefix(lines[0], "time_s,web_mhz,web_credit,batch_mhz,batch_credit") {
		t.Fatalf("header = %q", lines[0])
	}
	for _, line := range lines[1:] {
		if strings.Count(line, ",") != strings.Count(lines[0], ",") {
			t.Fatalf("ragged CSV row %q", line)
		}
	}
	// The end-of-run metrics dump rides on the CSV as comment lines.
	joined := strings.Join(comments, "\n")
	for _, want := range []string{"vfreq_steps_total 5", `vfreq_step_stage_us_count{stage="monitor"} 5`} {
		if !strings.Contains(joined, want) {
			t.Errorf("metrics dump missing %q", want)
		}
	}
}

// splitCSV separates a run artefact into CSV data lines and "# "
// comment lines (the appended metrics dump).
func splitCSV(data string) (rows, comments []string) {
	for _, line := range strings.Split(strings.TrimSpace(data), "\n") {
		if strings.HasPrefix(line, "#") {
			comments = append(comments, line)
			continue
		}
		rows = append(rows, line)
	}
	return rows, comments
}

func TestRunSimValidatesVMs(t *testing.T) {
	sc := Scenario{
		Node: "chetemi", DurationS: 1, Control: true,
		VMs: []ScenarioVM{{Name: "bad", VCPUs: 0, FreqMHz: 500, Workload: "busy"}},
	}
	if err := runSim(sc, filepath.Join(t.TempDir(), "x.csv"), "", checkpointOpts{}, metrics.NewRegistry()); err == nil {
		t.Fatal("invalid VM accepted")
	}
}
