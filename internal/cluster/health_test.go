package cluster

import (
	"errors"
	"testing"

	"vfreq/internal/core"
	"vfreq/internal/host"
	"vfreq/internal/vm"
	"vfreq/internal/workload"
)

func TestHealthHealthyCluster(t *testing.T) {
	c := twoNodeCluster(t)
	if _, err := c.Deploy("a", vm.Small(), busy(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy("b", vm.Medium(), busy(4)); err != nil {
		t.Fatal(err)
	}
	// One VM per node, so the aggregate has to sum every node.
	if _, err := c.Migrate("b", 1-c.Locate("a")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	h := c.Health()
	if h.VCPUs != 6 {
		t.Fatalf("VCPUs = %d, want 6", h.VCPUs)
	}
	if h.DegradedVCPUs != 0 || h.Faults != 0 || h.DegradedNodes != 0 || h.FailedNodes != 0 {
		t.Fatalf("healthy cluster reports degradation: %+v", h)
	}
	for _, n := range c.Nodes() {
		if n.LastErr != nil {
			t.Fatalf("node %d LastErr = %v", n.Index, n.LastErr)
		}
		if n.LastReport.Step == 0 {
			t.Fatalf("node %d has no report", n.Index)
		}
	}
}

// A node whose pseudo-file reads fail degrades alone: its vCPUs are
// reported degraded, the other node stays healthy, and the cluster Step
// still succeeds (fault isolation end to end, through the real sim
// backend rather than a scripted host).
func TestStepIsolatesNodeDegradation(t *testing.T) {
	c := twoNodeCluster(t)
	if _, err := c.Deploy("a", vm.Small(), busy(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy("b", vm.Small(), busy(2)); err != nil {
		t.Fatal(err)
	}
	if c.Locate("a") != 0 || c.Locate("b") != 0 {
		t.Fatal("test expects both VMs on node 0")
	}
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	// Kill VM a's usage reads on node 0 (the sim host reads cpu.stat from
	// the machine's pseudo-filesystem).
	boom := errors.New("cgroup vanished")
	c.Nodes()[0].Machine.FailReads("machine-qemu-a.scope", boom, -1)
	if err := c.Step(); err != nil {
		t.Fatalf("Step err = %v, want isolated success", err)
	}
	h := c.Health()
	if h.DegradedVCPUs != 2 || h.DegradedNodes != 1 || h.FailedNodes != 0 {
		t.Fatalf("Health = %+v, want 2 degraded vCPUs on 1 node", h)
	}
	rep := c.Nodes()[0].LastReport
	if rep.FaultCount() == 0 || !errors.Is(rep.Faults[0].Err, boom) {
		t.Fatalf("node 0 report = %s, want recorded faults", rep.String())
	}
	// VM b on the same node is untouched.
	for _, v := range c.Nodes()[0].Ctrl.VM("b").VCPUs {
		if v.Degraded {
			t.Fatal("healthy VM degraded by neighbour's fault")
		}
	}
	// Recovery.
	c.Nodes()[0].Machine.ClearFileFaults()
	if err := c.Step(); err != nil {
		t.Fatalf("recovery step: %v", err)
	}
	if got := c.Health(); got.DegradedVCPUs != 0 || got.DegradedNodes != 0 {
		t.Fatalf("degradation sticky after recovery: %+v", got)
	}
}

// A persistently faulty VM trips its per-VM circuit breaker and the
// quarantine surfaces in the cluster Health aggregate; once the fault
// clears, the breaker drains and the cluster reports fully healthy again.
func TestHealthSurfacesBreakerStates(t *testing.T) {
	cfg := Config{Controller: core.DefaultConfig()}
	cfg.Controller.HostRetries = 0
	cfg.Controller.BreakerThreshold = 2
	cfg.Controller.BreakerOpenSteps = 2
	c, err := New([]host.Spec{host.Chetemi()}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy("a", vm.Small(), busy(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy("b", vm.Small(), busy(2)); err != nil {
		t.Fatal(err)
	}
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("cgroup vanished")
	c.Nodes()[0].Machine.FailReads("machine-qemu-b.scope", boom, -1)
	tripped := false
	for i := 0; i < 2+1; i++ { // BreakerThreshold faulty steps, then the trip is visible
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
		if h := c.Health(); h.OpenVMs == 1 {
			if h.BreakerTrips != 1 {
				t.Fatalf("open VM without a counted trip: %+v", h)
			}
			tripped = true
			break
		}
	}
	if !tripped {
		t.Fatalf("breaker never opened: %+v", c.Health())
	}
	// Clear the fault and step until the breaker drains: open window,
	// half-open probes, then fully closed and healthy.
	c.Nodes()[0].Machine.ClearFileFaults()
	healthy := false
	for i := 0; i < 12; i++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
		h := c.Health()
		if h.OpenVMs == 0 && h.HalfOpenVMs == 0 && h.DegradedVCPUs == 0 {
			healthy = true
			break
		}
	}
	if !healthy {
		t.Fatalf("breaker never drained after fault cleared: %+v", c.Health())
	}
}

func TestResizeReflectsInControllerGuarantee(t *testing.T) {
	c := twoNodeCluster(t)
	idx, err := c.Deploy("a", vm.Small(), busy(2)) // 2 vCPU @ 500 MHz
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	n := c.Nodes()[idx]
	// C_i = 1e6 × 500/2400 = 208333 on chetemi.
	if got := n.Ctrl.VM("a").GuaranteeUs; got != 208_333 {
		t.Fatalf("guarantee = %d, want 208333", got)
	}
	// Live upgrade to 4 vCPU @ 1200 MHz.
	if err := c.Resize("a", vm.Medium(), busy(2)); err != nil {
		t.Fatal(err)
	}
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	st := n.Ctrl.VM("a")
	if got := st.GuaranteeUs; got != 500_000 {
		t.Fatalf("guarantee after resize = %d, want 500000", got)
	}
	if got := len(st.VCPUs); got != 4 {
		t.Fatalf("controller tracks %d vCPUs, want 4", got)
	}
	// Admission sees the resized load too.
	if got := used(n).FreqMHz; got != 4*1200 {
		t.Fatalf("used(n).FreqMHz = %d, want 4800", got)
	}
	// Shrink back down.
	if err := c.Resize("a", vm.Small(), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if got := len(n.Ctrl.VM("a").VCPUs); got != 2 {
		t.Fatalf("controller tracks %d vCPUs after shrink, want 2", got)
	}
}

// A resized VM must still migrate: Resize keeps the deployment's workload
// sources in step with the vCPU count, so the target node provisions the
// shape the VM has now. Before the fix Provision refused the stale list
// ("vm: 2 workload sources for 4 vCPUs" after a grow, 4 for 2 after a
// shrink), and a grow of an idle-deployed VM silently lost the new vCPUs'
// sources on the way.
func TestResizeThenMigrate(t *testing.T) {
	for _, tc := range []struct {
		name          string
		from, to      vm.Template
		deployed      int // sources passed to Deploy; 0 = nil (idle)
		added         int // sources passed to Resize; 0 = nil
		wantBusyVCPUs int // vCPUs that accumulate cycles on the target
	}{
		{"grow", vm.Small(), vm.Large(), 2, 2, 4},
		{"grow with idle additions", vm.Small(), vm.Large(), 2, 0, 2},
		{"grow an idle deployment", vm.Small(), vm.Large(), 0, 2, 2},
		{"shrink", vm.Large(), vm.Small(), 4, 0, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := twoNodeCluster(t)
			var srcs, added []workload.Source
			if tc.deployed > 0 {
				srcs = busy(tc.deployed)
			}
			if tc.added > 0 {
				added = busy(tc.added)
			}
			src, err := c.Deploy("a", tc.from, srcs)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Step(); err != nil {
				t.Fatal(err)
			}
			if err := c.Resize("a", tc.to, added); err != nil {
				t.Fatal(err)
			}
			if err := c.Step(); err != nil {
				t.Fatal(err)
			}
			if moved, err := c.Migrate("a", 1-src); err != nil || !moved {
				t.Fatalf("Migrate after Resize = %v, %v", moved, err)
			}
			for i := 0; i < 2; i++ {
				if err := c.Step(); err != nil { // steps both nodes
					t.Fatal(err)
				}
			}
			inst := c.Nodes()[1-src].Manager.Get("a")
			if inst == nil || inst.Template() != tc.to {
				t.Fatalf("target instance = %v, want template %+v", inst, tc.to)
			}
			if got := len(c.Nodes()[1-src].Ctrl.VM("a").VCPUs); got != tc.to.VCPUs {
				t.Fatalf("target controller tracks %d vCPUs, want %d", got, tc.to.VCPUs)
			}
			ran := 0
			for j := 0; j < tc.to.VCPUs; j++ {
				if inst.VCPUCycles(j) > 0 {
					ran++
				}
			}
			if ran != tc.wantBusyVCPUs {
				t.Fatalf("%d vCPUs ran on the target, want %d", ran, tc.wantBusyVCPUs)
			}
			if c.Nodes()[src].Manager.Get("a") != nil {
				t.Fatal("source node still holds the VM")
			}
		})
	}
}

func TestResizeRespectsAdmission(t *testing.T) {
	spec := host.Chetemi()
	spec.Cores = 2 // capacity 2 × 2400 = 4800 MHz
	c, err := New([]host.Spec{spec}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy("a", vm.Small(), nil); err != nil { // 1000 MHz
		t.Fatal(err)
	}
	if err := c.Resize("ghost", vm.Small(), nil); err == nil {
		t.Fatal("resize of unknown VM accepted")
	}
	// 4 × 1800 = 7200 MHz > 4800: must be rejected, template unchanged.
	if err := c.Resize("a", vm.Large(), nil); err == nil {
		t.Fatal("infeasible resize accepted")
	}
	if got := c.Nodes()[0].Manager.Get("a").Template().FreqMHz; got != 500 {
		t.Fatalf("rejected resize mutated template: %d", got)
	}
	// 4 × 1200 = 4800 exactly fits.
	if err := c.Resize("a", vm.Medium(), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
}
