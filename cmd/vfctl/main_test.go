package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vfreq/internal/core"
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
	for _, field := range []string{"auction_shards", "estimate_shards", "monitor_workers", "step_workers", "seed", "retry_backoff_max_us", "rebalance_every"} {
		raw := fmt.Sprintf(`{"node": "chetemi", "duration_s": 5, %q: 4, "vms": []}`, field)
		_, err := parseScenario([]byte(raw))
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("scenario with %q: error %v, want one naming the field", field, err)
		}
	}
	if _, err := parseScenario([]byte(`{"vms": [{"name": "a", "vcpu": 2}]}`)); err == nil || !strings.Contains(err.Error(), "vcpu") {
		t.Errorf("unknown VM field: error %v, want one naming it", err)
	}
	// A fault site that does not exist (BatchSetMax and SetBurst were
	// removed) parses but refuses to run, listing the sites that do.
	const valid = "valid sites: ListVMs, UsageUs, SetMax, ClearMax, ReadMax, ThreadID, LastCPU, CoreFreqMHz"
	for _, site := range []string{"BatchSetMax", "SetBurst"} {
		sc, err := parseScenario([]byte(`{"node": "chetemi", "duration_s": 1, "control": true,
			"fault_rate": 0.1, "fault_sites": ["` + site + `"], "vms": []}`))
		if err != nil {
			t.Fatal(err)
		}
		err = runSim(sc, filepath.Join(t.TempDir(), "x.csv"), checkpointOpts{}, metrics.NewRegistry())
		if err == nil || !strings.Contains(err.Error(), `"`+site+`"`) || !strings.Contains(err.Error(), valid) {
			t.Errorf("fault site %s: error %v, want one naming it and listing the %s", site, err, valid)
		}
	}
}

// A known field or flag the selected mode does not read is refused with
// the field or flag and the mode named, one row per combination; each
// mode accepts everything it does read.
func TestValidateMode(t *testing.T) {
	none := modeFlags{}
	with := func(edit func(*modeFlags)) modeFlags {
		f := none
		edit(&f)
		return f
	}
	linux := with(func(f *modeFlags) { f.linux = true })
	every := func(n int64) *int64 { return &n }
	faults := Scenario{FaultRate: 0.1, FaultDelayRate: 0.1, FaultDelayUs: 50, FaultSites: []string{"UsageUs"}, FaultSeed: 7}
	for _, tc := range []struct {
		name  string
		sc    Scenario
		flags modeFlags
		want  []string // substrings of the error; nil = accepted
	}{
		{"sim accepts faults, -csv, -checkpoint and its cadence, -resume", faults,
			with(func(f *modeFlags) {
				f.csv, f.checkpoint, f.checkpointEvery, f.resume = "o.csv", "c.json", every(0), true
			}), nil},
		{"cluster accepts -csv", Scenario{Nodes: 2},
			with(func(f *modeFlags) { f.csv = "o.csv" }), nil},
		{"linux accepts -checkpoint and its cadence", Scenario{HostRetries: 2},
			with(func(f *modeFlags) { f.linux, f.checkpoint, f.checkpointEvery = true, "c.json", every(5) }), nil},

		{"linux cluster", Scenario{Nodes: 2}, linux, []string{"nodes", "-linux"}},
		{"cluster fault_rate", Scenario{Nodes: 2, FaultRate: 0.1}, none, []string{"fault_rate", "cluster"}},
		{"cluster fault_delay_rate", Scenario{Nodes: 2, FaultDelayRate: 0.1}, none, []string{"fault_delay_rate", "cluster"}},
		{"cluster fault_delay_us", Scenario{Nodes: 2, FaultDelayUs: 50}, none, []string{"fault_delay_us", "cluster"}},
		{"cluster fault_sites", Scenario{Nodes: 2, FaultSites: []string{"SetMax"}}, none, []string{"fault_sites", "cluster"}},
		{"cluster fault_seed", Scenario{Nodes: 2, FaultSeed: 3}, none, []string{"fault_seed", "cluster"}},
		{"cluster -checkpoint", Scenario{Nodes: 2}, with(func(f *modeFlags) { f.checkpoint = "c.json" }), []string{"-checkpoint", "cluster"}},
		{"linux fault_rate", Scenario{FaultRate: 0.1}, linux, []string{"fault_rate", "-linux"}},
		{"linux fault_delay_rate", Scenario{FaultDelayRate: 0.1}, linux, []string{"fault_delay_rate", "-linux"}},
		{"linux fault_delay_us", Scenario{FaultDelayUs: 50}, linux, []string{"fault_delay_us", "-linux"}},
		{"linux fault_sites", Scenario{FaultSites: []string{"SetMax"}}, linux, []string{"fault_sites", "-linux"}},
		{"linux fault_seed", Scenario{FaultSeed: 3}, linux, []string{"fault_seed", "-linux"}},
		{"linux -csv", Scenario{}, with(func(f *modeFlags) { f.linux, f.csv = true, "o.csv" }), []string{"-csv", "-linux"}},
		{"-resume without -checkpoint", Scenario{}, with(func(f *modeFlags) { f.resume = true }), []string{"-resume", "-checkpoint"}},
		{"-checkpoint-every without -checkpoint", Scenario{}, with(func(f *modeFlags) { f.checkpointEvery = every(2) }),
			[]string{"-checkpoint-every", "requires -checkpoint"}},
		{"linux -checkpoint-every without -checkpoint", Scenario{}, with(func(f *modeFlags) { f.linux, f.checkpointEvery = true, every(1) }),
			[]string{"-checkpoint-every", "requires -checkpoint"}},
		{"negative -checkpoint-every", Scenario{}, with(func(f *modeFlags) { f.checkpoint, f.checkpointEvery = "c.json", every(-1) }),
			[]string{"-checkpoint-every", "negative"}},
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

// An out-of-range controller override is refused, never dropped: the run
// must not go on under the default in its place. host_retries -1 keeps
// its meaning (no retries); anything below it is refused too.
func TestControllerConfigRejectsOutOfRange(t *testing.T) {
	cases := []struct {
		field string
		sc    Scenario
		want  string // fragment of the Validate error
	}{
		{"increase_trigger", Scenario{IncreaseTrigger: -0.5}, "increase trigger"},
		{"increase_factor", Scenario{IncreaseFactor: -0.1}, "increase factor"},
		{"decrease_trigger", Scenario{DecreaseTrigger: -0.3}, "decrease trigger"},
		{"decrease_factor", Scenario{DecreaseFactor: -0.05}, "decrease factor"},
		{"host_retries", Scenario{HostRetries: -2}, "host retries"},
		{"call_budget_us", Scenario{CallBudgetUs: -5}, "call budget"},
		{"retry_backoff_us", Scenario{RetryBackoffUs: -1}, "retry backoff"},
		{"breaker_threshold", Scenario{BreakerThreshold: -2}, "breaker threshold"},
		{"breaker_open_steps", Scenario{BreakerOpenSteps: -1}, "breaker open steps"},
	}
	for _, tc := range cases {
		t.Run(tc.field, func(t *testing.T) {
			err := controllerConfig(tc.sc).Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s out of range: error %v, want one naming the %s", tc.field, err, tc.want)
			}
		})
	}
	if cfg := controllerConfig(Scenario{HostRetries: -1}); cfg.HostRetries != 0 || cfg.Validate() != nil {
		t.Fatalf("host_retries -1: HostRetries %d, Validate %v; want 0 and valid", cfg.HostRetries, cfg.Validate())
	}
	sc, err := parseScenario([]byte(`{"node": "chetemi", "duration_s": 3, "control": true,
		"call_budget_us": -5, "vms": [{"name": "a", "vcpus": 1, "freq_mhz": 1200, "workload": "busy"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := runSim(sc, filepath.Join(t.TempDir(), "x.csv"), checkpointOpts{}, metrics.NewRegistry()); err == nil {
		t.Fatal("scenario with call_budget_us -5 ran")
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
	if err := runSim(sc, out, checkpointOpts{path: snap}, metrics.NewRegistry()); err != nil {
		t.Fatal(err)
	}
	// The final checkpoint is valid JSON with both VMs.
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
	if err := runSim(sc, filepath.Join(t.TempDir(), "x.csv"), checkpointOpts{}, metrics.NewRegistry()); err == nil {
		t.Fatal("invalid VM accepted")
	}
}

// captureStderr runs f with os.Stderr redirected to a file and returns
// what f wrote there.
func captureStderr(t *testing.T, f func()) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	old := os.Stderr
	os.Stderr = tmp
	defer func() { os.Stderr = old }()
	f()
	raw, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// checkpointStep decodes the checkpoint at path and returns its step.
func checkpointStep(t *testing.T, path string) int64 {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := core.DecodeSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	return snap.Step
}

// -checkpoint, -checkpoint-every and -resume end to end through runSim:
// a resume with no checkpoint yet cold-starts, the final save, a resumed
// run continuing the step count, a blocked periodic save that warns
// without stopping the run or touching the previous checkpoint, and a
// corrupt checkpoint that refuses the resume.
func TestRunSimCheckpointResume(t *testing.T) {
	sc := Scenario{
		Node: "chetemi", DurationS: 5, Control: true,
		VMs: []ScenarioVM{
			{Name: "web", VCPUs: 2, FreqMHz: 500, MemoryGB: 2, Workload: "bursty:4:0.5"},
			{Name: "batch", VCPUs: 2, FreqMHz: 1800, MemoryGB: 4, Workload: "busy"},
		},
	}
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "state.json")
	csv := filepath.Join(dir, "out.csv")
	run := func(ck checkpointOpts, periods int) (string, error) {
		t.Helper()
		sc := sc
		sc.DurationS = periods
		var err error
		stderr := captureStderr(t, func() { err = runSim(sc, csv, ck, metrics.NewRegistry()) })
		return stderr, err
	}
	firstTime := func() string {
		t.Helper()
		raw, err := os.ReadFile(csv)
		if err != nil {
			t.Fatal(err)
		}
		rows, _ := splitCSV(string(raw))
		return strings.SplitN(rows[1], ",", 2)[0]
	}

	// No checkpoint yet: -resume cold-starts.
	stderr, err := run(checkpointOpts{path: ckpt, every: 2, resume: true}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr, "no checkpoint yet, cold-starting") || firstTime() != "1" {
		t.Fatalf("resume without a checkpoint: CSV starts at %s, stderr:\n%s", firstTime(), stderr)
	}
	if got := checkpointStep(t, ckpt); got != 5 {
		t.Fatalf("checkpoint after 5 periods at step %d, want 5 (the final save)", got)
	}

	stderr, err = run(checkpointOpts{path: ckpt, every: 2, resume: true}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr, "restored step 5: 2 adopted") {
		t.Fatalf("resume did not report the restore:\n%s", stderr)
	}
	if got := firstTime(); got != "6" {
		t.Fatalf("resumed CSV starts at time_s %s, want 6", got)
	}
	if got := checkpointStep(t, ckpt); got != 8 {
		t.Fatalf("checkpoint after the resumed run at step %d, want 8", got)
	}

	// A directory squats on the temp path: every save fails.
	good, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(ckpt+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	stderr, err = run(checkpointOpts{path: ckpt, every: 2, resume: true}, 3)
	if err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("final save through a blocked temp path: error %v, want one naming the checkpoint", err)
	}
	// Steps 9 to 11 ran; the one periodic save due, at 10, warned.
	if got := strings.Count(stderr, "vfctl: checkpoint at step"); got != 1 || !strings.Contains(stderr, "checkpoint at step 10:") {
		t.Fatalf("want one warning, for step 10; stderr:\n%s", stderr)
	}
	raw, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if rows, _ := splitCSV(string(raw)); len(rows) != 4 || !strings.HasPrefix(rows[3], "11,") {
		t.Fatalf("blocked saves stopped the run:\n%s", raw)
	}
	after, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(good) {
		t.Fatal("a failed save changed the previous checkpoint")
	}

	// A corrupt checkpoint refuses the resume rather than cold-starting.
	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run(checkpointOpts{path: corrupt, resume: true}, 1); err == nil || !strings.Contains(err.Error(), "decoding checkpoint") {
		t.Fatalf("resume from a corrupt checkpoint: error %v, want a decode error", err)
	}
}

// testdata/checkpoint_v3.json is a version-3 checkpoint, written by the
// vfctl of that format after 6 periods of v3Scenario with
// -checkpoint-every 0. Resuming from it runs exactly like resuming from
// its version-4 re-encoding: the keys version 4 dropped were never read.
func TestResumeFromVersion3Checkpoint(t *testing.T) {
	v3Scenario := Scenario{
		Node: "chetemi", DurationS: 4, Control: true,
		VMs: []ScenarioVM{
			{Name: "web", VCPUs: 2, FreqMHz: 500, MemoryGB: 2, Workload: "bursty:4:0.5"},
			{Name: "batch", VCPUs: 2, FreqMHz: 1800, MemoryGB: 4, Workload: "busy"},
		},
	}
	v3, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v3.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(v3), `"version": 3,`) || !strings.Contains(string(v3), `"market_us"`) {
		t.Fatal("fixture is not a version-3 checkpoint")
	}
	snap, err := core.DecodeSnapshot(v3)
	if err != nil {
		t.Fatal(err)
	}
	v4, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	resume := func(checkpoint []byte) (rows []string, final string) {
		t.Helper()
		dir := t.TempDir()
		ckpt, csv := filepath.Join(dir, "state.json"), filepath.Join(dir, "out.csv")
		if err := os.WriteFile(ckpt, checkpoint, 0o644); err != nil {
			t.Fatal(err)
		}
		var err error
		stderr := captureStderr(t, func() {
			err = runSim(v3Scenario, csv, checkpointOpts{path: ckpt, resume: true}, metrics.NewRegistry())
		})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(stderr, "restored step 6: 2 adopted") {
			t.Fatalf("resume did not adopt both wallets:\n%s", stderr)
		}
		raw, err := os.ReadFile(csv)
		if err != nil {
			t.Fatal(err)
		}
		rows, _ = splitCSV(string(raw))
		after, err := os.ReadFile(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		return rows, string(after)
	}
	rows3, final3 := resume(v3)
	rows4, final4 := resume(v4)
	if len(rows3) != 5 || !strings.HasPrefix(rows3[1], "7,") {
		t.Fatalf("resumed run from the v3 checkpoint:\n%s", strings.Join(rows3, "\n"))
	}
	if strings.Join(rows3, "\n") != strings.Join(rows4, "\n") {
		t.Fatalf("v3 and v4 resumes diverged:\nv3:\n%s\nv4:\n%s", strings.Join(rows3, "\n"), strings.Join(rows4, "\n"))
	}
	if final3 != final4 {
		t.Fatal("v3 and v4 resumes wrote different final checkpoints")
	}
	if s, err := core.DecodeSnapshot([]byte(final3)); err != nil || s.Version != core.SnapshotVersion || s.Step != 10 {
		t.Fatalf("final checkpoint: version %d step %d (%v), want version %d step 10", s.Version, s.Step, err, core.SnapshotVersion)
	}
}
