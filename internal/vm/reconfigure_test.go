package vm

import (
	"testing"

	"vfreq/internal/workload"
)

func TestReconfigureFrequencyOnly(t *testing.T) {
	mg := newManager(t)
	inst, err := mg.Provision("vm0", Small(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tpl := Small()
	tpl.FreqMHz = 1800
	if err := mg.Reconfigure("vm0", tpl, nil); err != nil {
		t.Fatal(err)
	}
	if inst.Template().FreqMHz != 1800 {
		t.Fatalf("freq = %d, want 1800", inst.Template().FreqMHz)
	}
	if len(inst.vcpus) != 2 {
		t.Fatalf("vCPU count changed: %d", len(inst.vcpus))
	}
}

func TestReconfigureGrowsAndShrinks(t *testing.T) {
	mg := newManager(t)
	inst, err := mg.Provision("vm0", Small(), // 2 vCPUs
		[]workload.Source{workload.Busy(), workload.Busy()})
	if err != nil {
		t.Fatal(err)
	}
	mg.Machine().Advance(500_000)
	usageBefore := inst.VCPUThread(0).UsageUs

	// Grow 2 → 4 with busy workloads on the new vCPUs.
	tpl := Small()
	tpl.VCPUs = 4
	if err := mg.Reconfigure("vm0", tpl,
		[]workload.Source{workload.Busy(), workload.Busy()}); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 4; j++ {
		if lookup(mg.Machine(), VCPUCgroup("vm0", j)) == nil {
			t.Fatalf("no vCPU %d cgroup after grow", j)
		}
	}
	if len(inst.vcpus) != 4 || len(inst.sources) != 4 {
		t.Fatal("instance slices did not grow together")
	}
	// Existing vCPUs kept running state; new ones attain cycles.
	if inst.VCPUThread(0).UsageUs != usageBefore {
		t.Fatal("existing vCPU usage disturbed by grow")
	}
	mg.Machine().Advance(500_000)
	if inst.VCPUCycles(3) == 0 {
		t.Fatal("grown vCPU attained no cycles")
	}

	// Shrink 4 → 1.
	tpl.VCPUs = 1
	if err := mg.Reconfigure("vm0", tpl, nil); err != nil {
		t.Fatal(err)
	}
	if len(inst.vcpus) != 1 || len(inst.sources) != 1 {
		t.Fatal("instance slices did not shrink together")
	}
	for j := 1; j < 4; j++ {
		if lookup(mg.Machine(), VCPUCgroup("vm0", j)) != nil {
			t.Fatalf("vCPU %d cgroup survived shrink", j)
		}
	}
	// The survivor keeps running.
	before := inst.VCPUThread(0).UsageUs
	mg.Machine().Advance(500_000)
	if inst.VCPUThread(0).UsageUs <= before {
		t.Fatal("surviving vCPU stopped running after shrink")
	}
}

func TestReconfigureValidation(t *testing.T) {
	mg := newManager(t)
	if _, err := mg.Provision("vm0", Small(), nil); err != nil {
		t.Fatal(err)
	}
	if err := mg.Reconfigure("ghost", Small(), nil); err == nil {
		t.Fatal("missing instance accepted")
	}
	bad := Small()
	bad.FreqMHz = 0
	if err := mg.Reconfigure("vm0", bad, nil); err == nil {
		t.Fatal("invalid template accepted")
	}
	fast := Small()
	fast.FreqMHz = 5000
	if err := mg.Reconfigure("vm0", fast, nil); err == nil {
		t.Fatal("frequency above node F_MAX accepted")
	}
	grow := Small()
	grow.VCPUs = 4
	if err := mg.Reconfigure("vm0", grow, []workload.Source{workload.Busy()}); err == nil {
		t.Fatal("wrong source count accepted")
	}
}

// TestReconfigureScopeGone: an instance whose scope cgroup has left the
// tree (removed behind the manager's back) can be neither shrunk nor
// grown; Reconfigure says so and touches neither the instance nor the
// detached cgroups.
func TestReconfigureScopeGone(t *testing.T) {
	for _, tc := range []struct {
		name     string
		from, to Template
	}{
		{"shrink", Large(), Small()},
		{"grow", Small(), Large()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mg := newManager(t)
			inst, err := mg.Provision("vm0", tc.from, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := mg.Machine().Sched.RemoveGroup(inst.scope); err != nil {
				t.Fatal(err)
			}
			children := len(inst.scope.Children)
			if err := mg.Reconfigure("vm0", tc.to, nil); err == nil {
				t.Fatal("reconfigured an instance whose scope cgroup left the tree")
			}
			if len(inst.vcpus) != tc.from.VCPUs || len(inst.scope.Children) != children || inst.Template() != tc.from {
				t.Fatalf("the refused change left %d vCPUs, %d cgroups under the scope, template %+v; want %d, %d, %+v",
					len(inst.vcpus), len(inst.scope.Children), inst.Template(), tc.from.VCPUs, children, tc.from)
			}
		})
	}
}
