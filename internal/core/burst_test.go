package core_test

import (
	"fmt"
	"testing"

	"vfreq/internal/cgroupfs"
	"vfreq/internal/core"
	"vfreq/internal/host"
	"vfreq/internal/platform"
	"vfreq/internal/vm"
	"vfreq/internal/workload"
)

// BurstFraction lets a spiky workload ride out sub-period demand peaks on
// bandwidth banked during its quiet cgroup periods. A workload that wants
// 100 % for 100 ms then idles 100 ms under a 50 % cap attains ~25 % of a
// core without burst (each busy window is cut in half) but ~50 % with a
// full burst budget.
func TestBurstFractionImprovesSpikyWorkloads(t *testing.T) {
	attained := func(burstFraction float64) int64 {
		mgr := testNode(t, 2)
		spiky := &workload.Bursty{PeriodUs: 200_000, Duty: 0.5, High: 1, Low: 0}
		tpl := vm.Template{Name: "spiky", VCPUs: 1, FreqMHz: 1200, MemoryGB: 1}
		inst, err := mgr.Provision("spiky", tpl, []workload.Source{spiky})
		if err != nil {
			t.Fatal(err)
		}
		// A busy neighbour so the spiky VM stays capped at its
		// 1200 MHz guarantee (half a core) instead of bursting via
		// the auction.
		other := vm.Template{Name: "busy", VCPUs: 2, FreqMHz: 1800, MemoryGB: 1}
		if _, err := mgr.Provision("busy", other, busySources(2)); err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.BurstFraction = burstFraction
		ctrl, err := core.New(platform.NewSim(mgr), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 12; step++ {
			mgr.Machine().Advance(cfg.PeriodUs)
			if err := ctrl.Step(); err != nil {
				t.Fatal(err)
			}
		}
		before := inst.VCPUThread(0).UsageUs
		for step := 0; step < 6; step++ {
			mgr.Machine().Advance(cfg.PeriodUs)
			if err := ctrl.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return inst.VCPUThread(0).UsageUs - before
	}
	plain := attained(0)
	burst := attained(1.0)
	if burst <= plain*13/10 {
		t.Fatalf("burst gave %d µs vs %d plain: expected ≥30%% improvement", burst, plain)
	}
}

func TestBurstFractionValidation(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.BurstFraction = 1.5
	if err := cfg.Validate(); err == nil {
		t.Fatal("burst fraction > 1 accepted")
	}
	cfg.BurstFraction = -0.1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative burst fraction accepted")
	}
}

// With burst control on, every write of the apply stage must keep
// cpu.max.burst ≤ cpu.max in the cgroup, as the kernel (and the emulation)
// demands: a quota dropping below the burst still in place, or a burst
// raised above the quota still in place, is refused and degrades the vCPU.
// An overcommitted node under bursty load moves the caps in both
// directions every few periods.
func TestApplyBurstOrder(t *testing.T) {
	spec := host.Chetemi()
	spec.Cores = 4
	machine, err := host.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := vm.NewManager(machine)
	if err != nil {
		t.Fatal(err)
	}
	bursty := func(n int, periodUs int64) []workload.Source {
		out := make([]workload.Source, n)
		for i := range out {
			out[i] = &workload.Bursty{PeriodUs: periodUs, Duty: 0.4, High: 1, Low: 0.05,
				PhaseUs: int64(i) * periodUs / 4}
		}
		return out
	}
	for _, p := range []struct {
		name     string
		tpl      vm.Template
		periodUs int64
	}{
		{"large", vm.Large(), 7_000_000},
		{"small", vm.Small(), 5_000_000},
		{"medium", vm.Medium(), 11_000_000},
	} {
		if _, err := mgr.Provision(p.name, p.tpl, bursty(p.tpl.VCPUs, p.periodUs)); err != nil {
			t.Fatal(err)
		}
	}
	cfg := core.DefaultConfig()
	cfg.BurstFraction = 0.5
	ctrl, err := core.New(platform.NewSim(mgr), cfg)
	if err != nil {
		t.Fatal(err)
	}
	step := func(label string, ctrl *core.Controller) {
		t.Helper()
		machine.Advance(cfg.PeriodUs)
		if err := ctrl.Step(); err != nil {
			t.Fatal(err)
		}
		if rep := ctrl.LastReport(); rep.DegradedVCPUs != 0 || rep.FaultCount() != 0 {
			t.Fatalf("%s: %d degraded vCPUs, faults %v", label, rep.DegradedVCPUs, rep.Faults)
		}
	}
	for i := 0; i < 300; i++ {
		step(fmt.Sprintf("period %d", i), ctrl)
	}
	// A controller that starts over cgroups it did not write knows no
	// applied burst — the state invalidateApplied leaves — and opens every
	// vCPU at its guarantee. Here a previous owner left small/vcpu0 a burst
	// above that quota, which only fits once the burst is out of the way.
	leftover := cgroupfs.DefaultMount + "/" + vm.VCPUCgroup("small", 0)
	for _, w := range [][2]string{{"cpu.max.burst", "0"}, {"cpu.max", "100000 100000"}, {"cpu.max.burst", "50000"}} {
		if err := machine.FS.WriteFile(leftover+"/"+w[0], w[1]); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := core.New(platform.NewSim(mgr), cfg)
	if err != nil {
		t.Fatal(err)
	}
	step("first period of a fresh controller", fresh)
}
