// Command vfctl runs the virtual-frequency controller.
//
// Simulation mode (default) takes a JSON scenario describing a node and
// its VMs, runs the controller against the simulated host, and streams a
// CSV with one row per control period: the monitored virtual frequency of
// every VM, the market size and the credit wallets.
//
//	vfctl -config scenario.json [-csv out.csv]
//	vfctl -example            # print a scenario skeleton and exit
//
// Cluster mode: a scenario with "nodes": N (N ≥ 2) boots N identical
// simulated machines, admits the VMs across them under the Eq. 7
// constraint and steps the whole cluster every period on a persistent
// worker pool of GOMAXPROCS goroutines. The CSV then carries
// cluster-level columns, including cluster_step_us — the wall time of
// each cluster step.
//
// Crash recovery: with -checkpoint vfctl persists the controller's state
// (credits, caps, consumption histories) atomically every
// -checkpoint-every periods (0: only the final save), plus once at clean
// exit. A failed periodic save is one line on stderr and the run goes
// on, the previous checkpoint still in place. -resume restores from that
// file before the first period, revalidating against the live host. A
// missing checkpoint degrades -resume into a cold start.
//
//	vfctl -config scenario.json -checkpoint state.json -resume
//
// Linux mode drives a real host through cgroup v2 (requires root and a
// libvirt-style machine.slice). VM virtual frequencies come from the same
// scenario file; the controller then applies real cpu.max quotas every
// period.
//
//	sudo vfctl -linux -config scenario.json
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"vfreq/internal/cluster"
	"vfreq/internal/core"
	"vfreq/internal/host"
	"vfreq/internal/metrics"
	"vfreq/internal/metricshttp"
	"vfreq/internal/platform"
	"vfreq/internal/trace"
	"vfreq/internal/vm"
	"vfreq/internal/workload"
)

// Scenario is the JSON configuration of a vfctl run.
type Scenario struct {
	// Node is "chetemi", "chiclet", or a custom spec below.
	Node string `json:"node"`
	// Custom node spec, used when Node is empty.
	Cores    int   `json:"cores,omitempty"`
	MaxMHz   int64 `json:"max_mhz,omitempty"`
	MemoryGB int   `json:"memory_gb,omitempty"`

	DurationS int  `json:"duration_s"`
	Control   bool `json:"control"`

	// Cluster mode: Nodes ≥ 2 boots that many identical nodes (each with
	// the spec above), admits the scenario VMs across them under the
	// Eq. 7 constraint, and steps the whole cluster every period; the CSV
	// then carries cluster-level columns, including cluster_step_us — the
	// wall time of each cluster Step.
	Nodes int `json:"nodes,omitempty"`

	// Controller overrides (zero values keep the paper defaults).
	IncreaseTrigger float64 `json:"increase_trigger,omitempty"`
	IncreaseFactor  float64 `json:"increase_factor,omitempty"`
	DecreaseTrigger float64 `json:"decrease_trigger,omitempty"`
	DecreaseFactor  float64 `json:"decrease_factor,omitempty"`
	// HostRetries overrides the in-step retry budget for failing host
	// reads/writes (-1 disables retrying; 0 keeps the default).
	HostRetries int `json:"host_retries,omitempty"`

	// Robustness knobs (zero values keep the features off, matching
	// core.DefaultConfig). CallBudgetUs bounds each host call;
	// RetryBackoffUs arms the pause before each retry;
	// BreakerThreshold/BreakerOpenSteps arm the per-VM circuit breaker.
	CallBudgetUs     int64 `json:"call_budget_us,omitempty"`
	RetryBackoffUs   int64 `json:"retry_backoff_us,omitempty"`
	BreakerThreshold int   `json:"breaker_threshold,omitempty"`
	BreakerOpenSteps int   `json:"breaker_open_steps,omitempty"`

	// Fault injection (single-node simulation only; cluster and -linux
	// runs reject these fields): each listed host call site fails
	// independently with probability FaultRate and stalls with
	// probability FaultDelayRate for up to FaultDelayUs µs. Sites
	// default to the monitor-path reads (UsageUs, ThreadID, LastCPU,
	// CoreFreqMHz) plus SetMax; seed 0 means 1. See the controller's
	// degradation columns in the CSV for the effect. The rates draw
	// from one seeded generator in call order, so a run replays from
	// FaultSeed.
	FaultRate      float64  `json:"fault_rate,omitempty"`
	FaultDelayRate float64  `json:"fault_delay_rate,omitempty"`
	FaultDelayUs   int64    `json:"fault_delay_us,omitempty"`
	FaultSites     []string `json:"fault_sites,omitempty"`
	FaultSeed      int64    `json:"fault_seed,omitempty"`

	VMs []ScenarioVM `json:"vms"`
}

// ScenarioVM describes one VM of the scenario.
type ScenarioVM struct {
	Name     string `json:"name"`
	VCPUs    int    `json:"vcpus"`
	FreqMHz  int64  `json:"freq_mhz"`
	MemoryGB int    `json:"memory_gb"`
	// Workload: "busy", "idle", "compress", "openssl",
	// "bursty:<periodS>:<duty>".
	Workload string `json:"workload"`
	StartS   int    `json:"start_s,omitempty"`
	// Work per benchmark run in Gcycles (compress/openssl only).
	GCycles int64 `json:"gcycles,omitempty"`
	Runs    int   `json:"runs,omitempty"`
}

const exampleScenario = `{
  "node": "chetemi",
  "duration_s": 120,
  "control": true,
  "vms": [
    {"name": "web", "vcpus": 2, "freq_mhz": 500, "memory_gb": 2, "workload": "bursty:20:0.3"},
    {"name": "batch", "vcpus": 4, "freq_mhz": 1800, "memory_gb": 8, "workload": "compress", "gcycles": 30, "runs": 10, "start_s": 10},
    {"name": "crypto", "vcpus": 4, "freq_mhz": 1200, "memory_gb": 4, "workload": "openssl", "gcycles": 60, "runs": 1}
  ]
}`

func main() {
	cfgPath := flag.String("config", "", "scenario JSON file")
	csvPath := flag.String("csv", "", "write the per-period CSV here instead of stdout")
	ckptPath := flag.String("checkpoint", "", "persist controller checkpoints to this file for crash recovery")
	ckptEvery := flag.Int64("checkpoint-every", 1, "periods between checkpoints (with -checkpoint; 0 = only the final save)")
	resume := flag.Bool("resume", false, "restore controller state from -checkpoint before the first period")
	example := flag.Bool("example", false, "print an example scenario and exit")
	linux := flag.Bool("linux", false, "drive the real host via cgroup v2 instead of the simulator")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	metricsAddr := flag.String("metrics-addr", "",
		"serve Prometheus text exposition at /metrics and pprof at /debug/pprof/ on this address (e.g. localhost:9090) for the duration of the run")
	flag.Parse()

	if *example {
		fmt.Println(exampleScenario)
		return
	}
	// Profiles are flushed explicitly after the run (not deferred) so
	// they survive the os.Exit in fatal on a failed run.
	var cpuFile *os.File
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		cpuFile = f
	}
	if *cfgPath == "" {
		fmt.Fprintln(os.Stderr, "vfctl: -config is required (try -example)")
		os.Exit(2)
	}
	raw, err := os.ReadFile(*cfgPath)
	if err != nil {
		fatal(err)
	}
	sc, err := parseScenario(raw)
	if err != nil {
		fatal(err)
	}
	if sc.DurationS <= 0 {
		fatal(fmt.Errorf("scenario: duration_s must be positive"))
	}
	mf := modeFlags{linux: *linux, csv: *csvPath, checkpoint: *ckptPath, resume: *resume}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "checkpoint-every" {
			mf.checkpointEvery = ckptEvery
		}
	})
	if err := validateMode(sc, mf); err != nil {
		fatal(err)
	}
	ck := checkpointOpts{path: *ckptPath, every: *ckptEvery, resume: *resume}
	// The registry is always armed — the end-of-run dump rides on the
	// CSV either way — and additionally served over HTTP when asked.
	reg := metrics.NewRegistry()
	if *metricsAddr != "" {
		addr, merr := metricshttp.Serve(*metricsAddr, reg)
		if merr != nil {
			fatal(merr)
		}
		fmt.Fprintf(os.Stderr, "vfctl: metrics at http://%s/metrics (pprof at /debug/pprof/)\n", addr)
	}
	switch {
	case *linux:
		err = runLinux(sc, ck, reg)
	case sc.Nodes >= 2:
		err = runSimCluster(sc, *csvPath, reg)
	default:
		err = runSim(sc, *csvPath, ck, reg)
	}
	if cpuFile != nil {
		pprof.StopCPUProfile()
		cpuFile.Close()
	}
	if *memProfile != "" {
		if perr := writeHeapProfile(*memProfile); perr != nil {
			fmt.Fprintln(os.Stderr, "vfctl:", perr)
		}
	}
	if err != nil {
		fatal(err)
	}
}

// modeFlags are the command-line flags that only some run modes honour,
// or only with another flag, as given: "" and nil mean the flag was not
// set.
type modeFlags struct {
	linux           bool
	csv, checkpoint string
	checkpointEvery *int64
	resume          bool
}

// validateMode rejects every scenario field and flag the selected mode —
// single-node simulation, cluster simulation (nodes >= 2) or -linux —
// would otherwise drop: like an unknown field, a known one that the mode
// does not read must not let the run proceed under different settings
// without a word. Nor may -resume or -checkpoint-every without the
// -checkpoint they apply to, or a negative -checkpoint-every.
func validateMode(sc Scenario, f modeFlags) error {
	if f.checkpoint == "" {
		switch {
		case f.resume:
			return fmt.Errorf("-resume requires -checkpoint")
		case f.checkpointEvery != nil:
			return fmt.Errorf("-checkpoint-every requires -checkpoint")
		}
	}
	if f.checkpointEvery != nil && *f.checkpointEvery < 0 {
		return fmt.Errorf("-checkpoint-every %d is negative", *f.checkpointEvery)
	}
	const sim, clusterSim, linux = 1, 2, 4
	mode, modeName := sim, "single-node simulation"
	switch {
	case f.linux && sc.Nodes >= 2:
		return fmt.Errorf("scenario field nodes >= 2 (cluster mode) is simulation-only, not supported with -linux")
	case f.linux:
		mode, modeName = linux, "-linux mode"
	case sc.Nodes >= 2:
		mode, modeName = clusterSim, "cluster mode (nodes >= 2)"
	}
	for _, k := range []struct {
		name  string
		set   bool
		modes int // the modes that honour it
	}{
		{"scenario field fault_rate", sc.FaultRate != 0, sim},
		{"scenario field fault_delay_rate", sc.FaultDelayRate != 0, sim},
		{"scenario field fault_delay_us", sc.FaultDelayUs != 0, sim},
		{"scenario field fault_sites", len(sc.FaultSites) != 0, sim},
		{"scenario field fault_seed", sc.FaultSeed != 0, sim},
		{"flag -csv", f.csv != "", sim | clusterSim},
		{"flag -checkpoint", f.checkpoint != "", sim | linux},
	} {
		if k.set && k.modes&mode == 0 {
			return fmt.Errorf("%s is not supported in %s", k.name, modeName)
		}
	}
	return nil
}

// writeHeapProfile dumps the live heap (post-GC, so steady-state objects
// rather than transient garbage) to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// checkpointOpts carries the crash-recovery flags. With a path, the
// controller's checkpoint is saved there after every every-th Step (never
// when every is 0) and once at clean exit.
type checkpointOpts struct {
	path   string
	every  int64
	resume bool
}

// restore restores ctrl from the checkpoint file when -resume asked for
// it, and reports whether it did: a missing file is a cold start.
func (ck checkpointOpts) restore(ctrl *core.Controller) (bool, error) {
	if !ck.resume {
		return false, nil
	}
	data, err := platform.FileStore{Path: ck.path}.Load()
	if errors.Is(err, platform.ErrNoCheckpoint) {
		fmt.Fprintln(os.Stderr, "vfctl: no checkpoint yet, cold-starting")
		return false, nil
	}
	if err != nil {
		return false, err
	}
	snap, err := core.DecodeSnapshot(data)
	if err != nil {
		return false, err
	}
	rr, err := ctrl.Restore(snap)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(os.Stderr, "vfctl: %s\n", rr)
	return true, nil
}

// afterStep saves the checkpoint when the Step just taken completes an
// interval. A failed save is one line on stderr and the run goes on:
// the previous checkpoint stays in place.
func (ck checkpointOpts) afterStep(ctrl *core.Controller) {
	if ck.every == 0 || ctrl.Steps()%ck.every != 0 {
		return
	}
	if err := ck.save(ctrl); err != nil {
		fmt.Fprintf(os.Stderr, "vfctl: checkpoint at step %d: %v\n", ctrl.Steps(), err)
	}
}

// save writes ctrl's checkpoint to the file, if there is one, so that a
// later -resume continues from the very last period.
func (ck checkpointOpts) save(ctrl *core.Controller) error {
	if ck.path == "" {
		return nil
	}
	data, err := ctrl.Snapshot().JSON()
	if err != nil {
		return fmt.Errorf("encoding checkpoint: %w", err)
	}
	return platform.FileStore{Path: ck.path}.Save(data)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vfctl:", err)
	os.Exit(1)
}

func nodeSpec(sc Scenario) (host.Spec, error) {
	switch sc.Node {
	case "chetemi":
		return host.Chetemi(), nil
	case "chiclet":
		return host.Chiclet(), nil
	case "":
		spec := host.Chetemi() // power/DVFS defaults
		spec.Name = "custom"
		spec.Cores = sc.Cores
		spec.MaxMHz = sc.MaxMHz
		spec.MemoryGB = sc.MemoryGB
		return spec, spec.Validate()
	default:
		return host.Spec{}, fmt.Errorf("unknown node %q", sc.Node)
	}
}

func buildWorkload(v ScenarioVM) ([]workload.Source, error) {
	startUs := int64(v.StartS) * 1_000_000
	kind := v.Workload
	switch {
	case kind == "busy":
		srcs := make([]workload.Source, v.VCPUs)
		for i := range srcs {
			srcs[i] = &workload.Delayed{StartUs: startUs, Inner: workload.Busy()}
		}
		return srcs, nil
	case kind == "idle" || kind == "":
		return nil, nil
	case kind == "compress" || kind == "openssl":
		g := v.GCycles
		if g <= 0 {
			g = 30
		}
		runs := v.Runs
		if runs <= 0 {
			runs = 1
		}
		var b *workload.Bench
		var err error
		if kind == "compress" {
			b, err = workload.NewCompress7zip(v.VCPUs, g*1_000_000_000, runs, startUs)
		} else {
			b, err = workload.NewOpenSSL(v.VCPUs, g*1_000_000_000, runs, startUs)
		}
		if err != nil {
			return nil, err
		}
		return b.Sources(), nil
	case strings.HasPrefix(kind, "bursty:"):
		var periodS int
		var duty float64
		if _, err := fmt.Sscanf(kind, "bursty:%d:%f", &periodS, &duty); err != nil {
			return nil, fmt.Errorf("bad bursty spec %q (want bursty:<periodS>:<duty>)", kind)
		}
		srcs := make([]workload.Source, v.VCPUs)
		for i := range srcs {
			srcs[i] = &workload.Delayed{StartUs: startUs, Inner: &workload.Bursty{
				PeriodUs: int64(periodS) * 1_000_000, Duty: duty, High: 1, Low: 0.02,
			}}
		}
		return srcs, nil
	default:
		return nil, fmt.Errorf("unknown workload %q", kind)
	}
}

// scenarioVM builds a scenario VM's template (memory_gb defaults to 1)
// and workload sources.
func scenarioVM(v ScenarioVM) (vm.Template, []workload.Source, error) {
	srcs, err := buildWorkload(v)
	if err != nil {
		return vm.Template{}, nil, fmt.Errorf("VM %q: %w", v.Name, err)
	}
	mem := v.MemoryGB
	if mem == 0 {
		mem = 1
	}
	return vm.Template{Name: v.Name, VCPUs: v.VCPUs, FreqMHz: v.FreqMHz, MemoryGB: mem}, srcs, nil
}

// parseScenario decodes a scenario file. Unknown fields are an error, not
// dropped: a scenario written for a knob that no longer exists (or a
// misspelt one) must not run under different settings without a word.
func parseScenario(raw []byte) (Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return Scenario{}, fmt.Errorf("parsing scenario: %w", err)
	}
	return sc, nil
}

// controllerConfig applies the scenario's controller overrides to the
// paper defaults. Every non-zero value goes through as written, so an
// out-of-range one reaches core.Config.Validate and is refused rather
// than dropped; only host_retries -1 is translated (to no retries).
func controllerConfig(sc Scenario) core.Config {
	cfg := core.DefaultConfig()
	override(&cfg.IncreaseTrigger, sc.IncreaseTrigger)
	override(&cfg.IncreaseFactor, sc.IncreaseFactor)
	override(&cfg.DecreaseTrigger, sc.DecreaseTrigger)
	override(&cfg.DecreaseFactor, sc.DecreaseFactor)
	if sc.HostRetries == -1 {
		cfg.HostRetries = 0
	} else {
		override(&cfg.HostRetries, sc.HostRetries)
	}
	cfg.ControlEnabled = sc.Control
	override(&cfg.CallBudgetUs, sc.CallBudgetUs)
	override(&cfg.RetryBackoffUs, sc.RetryBackoffUs)
	override(&cfg.BreakerThreshold, sc.BreakerThreshold)
	override(&cfg.BreakerOpenSteps, sc.BreakerOpenSteps)
	return cfg
}

// override sets *dst to v unless v is zero, a scenario's "keep the
// default".
func override[T int | int64 | float64](dst *T, v T) {
	if v != 0 {
		*dst = v
	}
}

// faultHost wraps h with the scenario's fault plans, or returns it
// unchanged when no injection is configured.
func faultHost(sc Scenario, h platform.Host) (platform.Host, error) {
	if sc.FaultRate <= 0 && sc.FaultDelayRate <= 0 {
		return h, nil
	}
	seed := sc.FaultSeed
	if seed == 0 {
		seed = 1
	}
	fh := platform.WithFaults(h, seed)
	sites := sc.FaultSites
	if len(sites) == 0 {
		sites = []string{
			string(platform.SiteUsage), string(platform.SiteThreadID),
			string(platform.SiteLastCPU), string(platform.SiteCoreFreq),
			string(platform.SiteSetMax),
		}
	}
	for _, name := range sites {
		site, err := platform.SiteByName(name)
		if err != nil {
			return nil, err
		}
		if err := fh.Plan(site, platform.FaultPlan{
			Rate:      sc.FaultRate,
			DelayRate: sc.FaultDelayRate,
			DelayUs:   sc.FaultDelayUs,
		}); err != nil {
			return nil, err
		}
	}
	return fh, nil
}

// dumpMetrics appends the registry's full text exposition to the CSV
// stream as "# "-prefixed comment lines, so headless runs keep the
// observability data inside the run artefact without corrupting the
// table.
func dumpMetrics(out *os.File, reg *metrics.Registry) {
	fmt.Fprintln(out, "# metrics")
	_ = reg.WriteText(trace.NewCommentWriter(out, "# "))
}

func runSim(sc Scenario, csvPath string, ck checkpointOpts, reg *metrics.Registry) error {
	spec, err := nodeSpec(sc)
	if err != nil {
		return err
	}
	machine, err := host.New(spec)
	if err != nil {
		return err
	}
	mgr, err := vm.NewManager(machine)
	if err != nil {
		return err
	}
	for _, v := range sc.VMs {
		tpl, srcs, err := scenarioVM(v)
		if err != nil {
			return err
		}
		if _, err := mgr.Provision(v.Name, tpl, srcs); err != nil {
			return err
		}
	}
	h, err := faultHost(sc, platform.NewSim(mgr))
	if err != nil {
		return err
	}
	ctrl, err := core.New(h, controllerConfig(sc))
	if err != nil {
		return err
	}
	ctrl.ArmMetrics(reg)
	if fh, ok := h.(*platform.FaultyHost); ok {
		fh.ArmMetrics(reg)
	}
	if _, err := ck.restore(ctrl); err != nil {
		return err
	}

	out := os.Stdout
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	fmt.Fprint(out, "time_s")
	for _, v := range sc.VMs {
		fmt.Fprintf(out, ",%s_mhz,%s_credit", v.Name, v.Name)
	}
	fmt.Fprintln(out, ",market_us,energy_j,degraded,faults,overrun,recovered,open_vms,halfopen_vms")
	period := ctrl.Config().PeriodUs
	health := trace.NewRecorder()
	var prevEnergy float64
	for step := 0; step < sc.DurationS; step++ {
		snaps := map[string][]int64{}
		for _, inst := range mgr.List() {
			snaps[inst.Name()] = inst.SnapshotCycles()
		}
		machine.Advance(period)
		if err := ctrl.Step(); err != nil {
			return err
		}
		ck.afterStep(ctrl)
		fmt.Fprintf(out, "%d", ctrl.Steps())
		var caps int64
		for _, v := range sc.VMs {
			inst := mgr.Get(v.Name)
			f := inst.MeanVCPUFreqMHz(snaps[v.Name], period)
			var credit int64
			if st := ctrl.VM(v.Name); st != nil {
				credit = st.CreditUs
				for _, vc := range st.VCPUs {
					caps += vc.CapUs
				}
			}
			fmt.Fprintf(out, ",%.0f,%d", f, credit)
		}
		market := ctrl.CapacityUs() - caps
		e := machine.Meter.Joules()
		rep := ctrl.LastReport()
		overrun := 0
		if rep.Overrun {
			overrun = 1
		}
		fmt.Fprintf(out, ",%d,%.0f,%d,%d,%d,%d,%d,%d\n", market, e-prevEnergy,
			rep.DegradedVCPUs, rep.FaultCount(), overrun, rep.Recovered,
			rep.OpenVMs, rep.HalfOpenVMs)
		prevEnergy = e
		health.RecordAll(float64(step+1), map[string]float64{
			"degraded_vcpus": float64(rep.DegradedVCPUs),
			"faults":         float64(rep.FaultCount()),
			"retries":        float64(rep.Retries),
			"overruns":       float64(overrun),
			"recovered":      float64(rep.Recovered),
			"open_vms":       float64(rep.OpenVMs),
			"halfopen_vms":   float64(rep.HalfOpenVMs),
		})
	}
	dumpMetrics(out, reg)
	fmt.Fprintf(os.Stderr, "vfctl: %d periods, controller avg step %v\n",
		ctrl.Steps(), ctrl.LastTimings().Total)
	if f := health.Series("faults"); f != nil && f.Sum() > 0 {
		fmt.Fprintf(os.Stderr,
			"vfctl: degradation: %.0f faults, %.0f retries, peak %g degraded vCPUs, mean %.2f\n",
			f.Sum(), health.Series("retries").Sum(),
			health.Series("degraded_vcpus").Max(), health.Series("degraded_vcpus").Mean())
	}
	return ck.save(ctrl)
}

// runSimCluster drives a simulated cluster of sc.Nodes identical
// machines: the scenario VMs are admitted across the fleet under the
// Eq. 7 constraint, every period steps all node controllers on the
// cluster's worker pool, and the CSV reports cluster-level health plus
// cluster_step_us — the wall time of each cluster Step, the
// decision-latency figure the step pool bounds.
func runSimCluster(sc Scenario, csvPath string, reg *metrics.Registry) error {
	spec, err := nodeSpec(sc)
	if err != nil {
		return err
	}
	specs := make([]host.Spec, sc.Nodes)
	for i := range specs {
		specs[i] = spec
	}
	cl, err := cluster.New(specs, cluster.Config{
		Controller: controllerConfig(sc),
		// One unreachable period per node is rare in simulation; three
		// in a row marks the node failed and evacuates it, matching the
		// dynamic experiment.
		FailThreshold: 3,
	})
	if err != nil {
		return err
	}
	defer cl.Close()
	cl.ArmMetrics(reg)
	for _, v := range sc.VMs {
		tpl, srcs, err := scenarioVM(v)
		if err != nil {
			return err
		}
		node, err := cl.Deploy(v.Name, tpl, srcs)
		if err != nil {
			return fmt.Errorf("VM %q: %w", v.Name, err)
		}
		fmt.Fprintf(os.Stderr, "vfctl: %s placed on node %d\n", v.Name, node)
	}

	out := os.Stdout
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	fmt.Fprintln(out, "time_s,cluster_step_us,used_nodes,failed_nodes,degraded_vcpus,faults,evacuated_vms,stranded_vms,migrations,energy_j")
	var prevEnergy float64
	var stepUsSum int64
	for step := 0; step < sc.DurationS; step++ {
		start := time.Now()
		// Node failures are isolated by the cluster — the surviving
		// nodes were stepped — so an error shows up in failed_nodes
		// rather than aborting the run.
		_ = cl.Step()
		stepUs := time.Since(start).Microseconds()
		stepUsSum += stepUs
		h := cl.Health()
		e := cl.ActiveEnergyJoules()
		fmt.Fprintf(out, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%.0f\n",
			step+1, stepUs, cl.UsedNodes(), h.FailedNodes, h.DegradedVCPUs,
			h.Faults, h.EvacuatedVMs, h.StrandedVMs, cl.Migrations(), e-prevEnergy)
		prevEnergy = e
	}
	dumpMetrics(out, reg)
	fmt.Fprintf(os.Stderr, "vfctl: %d periods over %d nodes, cluster avg step %d µs\n",
		sc.DurationS, sc.Nodes, stepUsSum/int64(sc.DurationS))
	return nil
}

// runLinux drives a real host: same controller, real files, wall-clock
// periods.
func runLinux(sc Scenario, ck checkpointOpts, reg *metrics.Registry) error {
	freqs := map[string]int64{}
	for _, v := range sc.VMs {
		freqs[v.Name] = v.FreqMHz
	}
	h, err := platform.NewLinux(freqs)
	if err != nil {
		return fmt.Errorf("linux backend: %w", err)
	}
	ctrl, err := core.New(h, controllerConfig(sc))
	if err != nil {
		return err
	}
	ctrl.ArmMetrics(reg)
	resumed, err := ck.restore(ctrl)
	if err != nil {
		return err
	}
	if resumed {
		fmt.Printf("vfctl: resumed from checkpoint at step %d\n", ctrl.Steps())
	}
	period := time.Duration(ctrl.Config().PeriodUs) * time.Microsecond
	fmt.Printf("vfctl: controlling %d-core node %s (F_MAX %d MHz), period %v\n",
		h.Node().Cores, h.Node().Name, h.Node().MaxFreqMHz, period)
	for step := 0; step < sc.DurationS; step++ {
		start := time.Now()
		if err := ctrl.Step(); err != nil {
			return err
		}
		ck.afterStep(ctrl)
		if rep := ctrl.LastReport(); rep.Degraded() {
			fmt.Printf("t=%-4d degraded: %s\n", step+1, rep.String())
		}
		for _, st := range ctrl.VMs() {
			var mhz float64
			for _, vc := range st.VCPUs {
				mhz += vc.FreqMHz
			}
			if n := len(st.VCPUs); n > 0 {
				mhz /= float64(n)
			}
			fmt.Printf("t=%-4d %-20s %6.0f MHz (guarantee %d MHz, credits %d)\n",
				step+1, st.Info.Name, mhz, st.Info.FreqMHz, st.CreditUs)
		}
		// Sleep p − spent, as §III-B6 prescribes; PeriodSleep clamps an
		// overrunning step to zero instead of producing a negative sleep.
		if d := ctrl.PeriodSleep(time.Since(start)); d > 0 {
			time.Sleep(d)
		}
	}
	return ck.save(ctrl)
}
