package core_test

import (
	"testing"

	"vfreq/internal/core"
	"vfreq/internal/dvfs"
	"vfreq/internal/energy"
	"vfreq/internal/host"
	"vfreq/internal/platform"
	"vfreq/internal/vm"
	"vfreq/internal/workload"
)

// testNode is a small 2-core node at 2.4 GHz with a performance governor,
// so virtual frequencies are exactly share × 2400.
func testNode(t *testing.T, cores int) *vm.Manager {
	t.Helper()
	m, err := host.New(host.Spec{
		Name: "testnode", Cores: cores,
		MinMHz: 1200, MaxMHz: 2400, MemoryGB: 64,
		Governor: dvfs.GovernorPerformance,
		Power:    energy.PowerModel{IdleWatts: 100, MaxWatts: 200, Alpha: 1, Gamma: 1, MaxMHz: 2400},
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := vm.NewManager(m)
	if err != nil {
		t.Fatal(err)
	}
	return mgr
}

func busySources(n int) []workload.Source {
	out := make([]workload.Source, n)
	for i := range out {
		out[i] = workload.Busy()
	}
	return out
}

// run advances the machine and controller in lock-step for n periods and
// returns the per-VM mean virtual frequency (MHz) over the last `tail`
// periods, measured from ground-truth attained cycles.
func run(t *testing.T, mgr *vm.Manager, ctrl *core.Controller, n, tail int) map[string]float64 {
	t.Helper()
	period := ctrl.Config().PeriodUs
	snaps := map[string][]int64{}
	for step := 0; step < n; step++ {
		if step == n-tail {
			for _, inst := range mgr.List() {
				snaps[inst.Name()] = inst.SnapshotCycles()
			}
		}
		mgr.Machine().Advance(period)
		if err := ctrl.Step(); err != nil {
			t.Fatal(err)
		}
	}
	out := map[string]float64{}
	for _, inst := range mgr.List() {
		out[inst.Name()] = inst.MeanVCPUFreqMHz(snaps[inst.Name()], int64(tail)*period)
	}
	return out
}

// The paper's central claim: under contention, every VM runs at its
// chosen virtual frequency. Two VMs on 2 cores, guarantees filling the
// machine exactly (2×600 + 2×1800 = 2×2400).
func TestControllerEnforcesGuaranteesUnderContention(t *testing.T) {
	mgr := testNode(t, 2)
	slow := vm.Template{Name: "slow", VCPUs: 2, FreqMHz: 600, MemoryGB: 2}
	fast := vm.Template{Name: "fast", VCPUs: 2, FreqMHz: 1800, MemoryGB: 2}
	if _, err := mgr.Provision("slow", slow, busySources(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Provision("fast", fast, busySources(2)); err != nil {
		t.Fatal(err)
	}
	ctrl, err := core.New(platform.NewSim(mgr), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	freqs := run(t, mgr, ctrl, 20, 10)
	if f := freqs["slow"]; f < 570 || f > 700 {
		t.Fatalf("slow VM at %.0f MHz, want ≈600", f)
	}
	if f := freqs["fast"]; f < 1710 || f > 1900 {
		t.Fatalf("fast VM at %.0f MHz, want ≈1800", f)
	}
}

// Without the controller, CFS splits per VM and both VMs get one core:
// each vCPU of both VMs runs at 1200 MHz regardless of template.
func TestWithoutControllerCFSIgnoresTemplates(t *testing.T) {
	mgr := testNode(t, 2)
	slow := vm.Template{Name: "slow", VCPUs: 2, FreqMHz: 600, MemoryGB: 2}
	fast := vm.Template{Name: "fast", VCPUs: 2, FreqMHz: 1800, MemoryGB: 2}
	if _, err := mgr.Provision("slow", slow, busySources(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Provision("fast", fast, busySources(2)); err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.ControlEnabled = false
	ctrl, err := core.New(platform.NewSim(mgr), cfg)
	if err != nil {
		t.Fatal(err)
	}
	freqs := run(t, mgr, ctrl, 10, 5)
	for name, f := range freqs {
		if f < 1150 || f > 1250 {
			t.Fatalf("%s at %.0f MHz, want ≈1200 (per-VM fair share)", name, f)
		}
	}
}

// Work conservation: when the fast VM is idle, the slow VM may burst far
// above its guarantee instead of wasting the node.
func TestControllerWorkConservingBurst(t *testing.T) {
	mgr := testNode(t, 2)
	slow := vm.Template{Name: "slow", VCPUs: 2, FreqMHz: 600, MemoryGB: 2}
	fast := vm.Template{Name: "fast", VCPUs: 2, FreqMHz: 1800, MemoryGB: 2}
	if _, err := mgr.Provision("slow", slow, busySources(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Provision("fast", fast, nil); err != nil { // idle
		t.Fatal(err)
	}
	ctrl, err := core.New(platform.NewSim(mgr), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	freqs := run(t, mgr, ctrl, 25, 8)
	if f := freqs["slow"]; f < 2200 {
		t.Fatalf("slow VM bursts to %.0f MHz only, want ≈2400 on idle node", f)
	}
}

// Reactivity: when the fast VM wakes up mid-experiment, the slow VM is
// squeezed back to its guarantee within a few periods.
func TestControllerReclaimsBurstOnContention(t *testing.T) {
	mgr := testNode(t, 2)
	slow := vm.Template{Name: "slow", VCPUs: 2, FreqMHz: 600, MemoryGB: 2}
	fast := vm.Template{Name: "fast", VCPUs: 2, FreqMHz: 1800, MemoryGB: 2}
	if _, err := mgr.Provision("slow", slow, busySources(2)); err != nil {
		t.Fatal(err)
	}
	// Fast VM starts its workload at t = 15 s.
	late := []workload.Source{
		&workload.Delayed{StartUs: 15_000_000, Inner: workload.Busy()},
		&workload.Delayed{StartUs: 15_000_000, Inner: workload.Busy()},
	}
	if _, err := mgr.Provision("fast", fast, late); err != nil {
		t.Fatal(err)
	}
	ctrl, err := core.New(platform.NewSim(mgr), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	freqs := run(t, mgr, ctrl, 40, 15)
	if f := freqs["fast"]; f < 1650 {
		t.Fatalf("fast VM recovered only %.0f MHz, want ≈1800", f)
	}
	if f := freqs["slow"]; f > 800 {
		t.Fatalf("slow VM still at %.0f MHz, want squeezed to ≈600", f)
	}
}

// The controller's monitored frequency estimate (procfs+sysfs based) must
// agree with ground truth within a tolerance, validating §III-B1.
func TestMonitoredFrequencyMatchesGroundTruth(t *testing.T) {
	mgr := testNode(t, 2)
	tpl := vm.Template{Name: "t", VCPUs: 2, FreqMHz: 1200, MemoryGB: 2}
	inst, err := mgr.Provision("a", tpl, busySources(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Provision("b", tpl, busySources(2)); err != nil {
		t.Fatal(err)
	}
	ctrl, err := core.New(platform.NewSim(mgr), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	period := ctrl.Config().PeriodUs
	for step := 0; step < 10; step++ {
		snap := inst.SnapshotCycles()
		mgr.Machine().Advance(period)
		if err := ctrl.Step(); err != nil {
			t.Fatal(err)
		}
		if step < 3 {
			continue // convergence
		}
		truth := inst.MeanVCPUFreqMHz(snap, period)
		var est float64
		for _, v := range ctrl.VM("a").VCPUs {
			est += v.FreqMHz
		}
		est /= 2
		if diff := est - truth; diff > 150 || diff < -150 {
			t.Fatalf("step %d: estimate %.0f vs truth %.0f MHz", step, est, truth)
		}
	}
}

// Conservation invariant: after every step on the simulated host the
// controller passes Check, cgroup read-back included.
func TestCapsNeverExceedCapacity(t *testing.T) {
	mgr := testNode(t, 2)
	for i, tpl := range []vm.Template{
		{Name: "a", VCPUs: 2, FreqMHz: 600, MemoryGB: 1},
		{Name: "b", VCPUs: 2, FreqMHz: 1200, MemoryGB: 1},
		{Name: "c", VCPUs: 1, FreqMHz: 300, MemoryGB: 1},
	} {
		if _, err := mgr.Provision(tpl.Name, tpl, busySources(tpl.VCPUs)); err != nil {
			t.Fatal(err, i)
		}
	}
	ctrl, err := core.New(platform.NewSim(mgr), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 15; step++ {
		mgr.Machine().Advance(ctrl.Config().PeriodUs)
		if err := ctrl.Step(); err != nil {
			t.Fatal(err)
		}
		if err := ctrl.Check(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}
