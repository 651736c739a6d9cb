package cluster

import (
	"errors"
	"testing"

	"vfreq/internal/host"
	"vfreq/internal/vm"
)

// A node whose host stops answering measurements is marked failed after
// FailThreshold consecutive bad steps and its VMs are evacuated to the
// surviving nodes under the same Eq. 7 constraint as initial placement.
func TestNodeFailureEvacuatesVMs(t *testing.T) {
	c, err := New([]host.Spec{host.Chetemi(), host.Chiclet()}, Config{FailThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy("a", vm.Small(), busy(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy("b", vm.Medium(), busy(4)); err != nil {
		t.Fatal(err)
	}
	if c.Locate("a") != 0 || c.Locate("b") != 0 {
		t.Fatal("test expects both VMs on node 0")
	}
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}

	// Node 0's pseudo-files all vanish: every usage read fails, every
	// vCPU degrades, and the node accumulates failed steps.
	boom := errors.New("host unreachable")
	c.Nodes()[0].Machine.FailReads("machine-", boom, -1)

	if err := c.Step(); err != nil {
		t.Fatalf("Step 1 under failure: %v", err)
	}
	n0 := c.Nodes()[0]
	if n0.FailedSteps != 1 || n0.Failed {
		t.Fatalf("after 1 bad step: failedSteps=%d failed=%v, want counting not failed", n0.FailedSteps, n0.Failed)
	}
	if c.Locate("a") != 0 {
		t.Fatal("evacuated before the threshold")
	}

	// Second consecutive bad step crosses the threshold: the node is
	// marked failed and evacuated within the same Step.
	if err := c.Step(); err != nil {
		t.Fatalf("Step 2 under failure: %v", err)
	}
	if !n0.Failed {
		t.Fatal("node 0 not marked failed at the threshold")
	}
	if c.Locate("a") != 1 || c.Locate("b") != 1 {
		t.Fatalf("VMs not evacuated: a@%d b@%d", c.Locate("a"), c.Locate("b"))
	}
	if got := c.Evacuations(); got != 2 {
		t.Fatalf("Evacuations = %d, want 2", got)
	}
	h := c.Health()
	if h.FailedNodes != 1 || h.EvacuatedVMs != 2 || h.StrandedVMs != 0 {
		t.Fatalf("Health = %+v, want 1 failed node, 2 evacuated", h)
	}
	// Eq. 7 on the target: the evacuated demand fits chiclet's capacity.
	n1 := c.Nodes()[1]
	if cap := int64(n1.Spec().Cores) * n1.Spec().MaxMHz; used(n1).FreqMHz > cap {
		t.Fatalf("target overcommitted: %d MHz used > %d capacity", used(n1).FreqMHz, cap)
	}
	// A failed node is excluded from admission…
	if idx, err := c.Deploy("c", vm.Small(), busy(2)); err != nil {
		t.Fatal(err)
	} else if idx == 0 {
		t.Fatal("failed node accepted a new VM")
	}
	// …and nothing already moved off it is placed back.
	for _, name := range []string{"a", "b", "c"} {
		if c.Locate(name) == 0 {
			t.Fatalf("%s placed back on the failed node", name)
		}
	}

	// Recovery: the host answers again, one clean Step re-admits the node.
	c.Nodes()[0].Machine.ClearFileFaults()
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if n0.Failed || n0.FailedSteps != 0 {
		t.Fatalf("node 0 not re-admitted: failedSteps=%d failed=%v", n0.FailedSteps, n0.Failed)
	}
	if got := c.Health().FailedNodes; got != 0 {
		t.Fatalf("FailedNodes after recovery = %d", got)
	}
	if _, err := c.Deploy("d", vm.Small(), busy(2)); err != nil {
		t.Fatalf("recovered node rejects deployment: %v", err)
	}
}

// A VM with no feasible target under Eq. 7 stays stranded on the failed
// node and is retried every Step until the node recovers.
func TestEvacuationStrandsInfeasibleVM(t *testing.T) {
	tiny := host.Chetemi()
	tiny.Name = "tiny"
	tiny.Cores = 2 // capacity 2 × 2400 = 4800 MHz < Large's 4 × 1800
	c, err := New([]host.Spec{host.Chetemi(), tiny}, Config{FailThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy("big", vm.Large(), busy(4)); err != nil {
		t.Fatal(err)
	}
	if c.Locate("big") != 0 {
		t.Fatal("test expects the VM on node 0")
	}
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}

	c.Nodes()[0].Machine.FailReads("machine-", errors.New("gone"), -1)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	h := c.Health()
	if h.FailedNodes != 1 || h.StrandedVMs != 1 || h.EvacuatedVMs != 0 {
		t.Fatalf("Health = %+v, want 1 stranded VM on 1 failed node", h)
	}
	if c.Locate("big") != 0 || c.Evacuations() != 0 {
		t.Fatal("infeasible VM moved anyway")
	}

	// Still failed next Step: the stranded VM is retried (and stays put).
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if got := c.Health().StrandedVMs; got != 1 {
		t.Fatalf("StrandedVMs on retry = %d, want 1", got)
	}

	// Recovery clears the failure and the VM never moved.
	c.Nodes()[0].Machine.ClearFileFaults()
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if h := c.Health(); h.FailedNodes != 0 || h.StrandedVMs != 0 {
		t.Fatalf("Health after recovery = %+v", h)
	}
	if c.Locate("big") != 0 {
		t.Fatal("VM moved despite recovery")
	}
}
