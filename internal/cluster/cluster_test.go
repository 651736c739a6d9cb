package cluster

import (
	"fmt"
	"testing"

	"vfreq/internal/host"
	"vfreq/internal/placement"
	"vfreq/internal/vm"
	"vfreq/internal/workload"
)

func twoNodeCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := New([]host.Spec{host.Chetemi(), host.Chiclet()}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func busy(n int) []workload.Source {
	out := make([]workload.Source, n)
	for i := range out {
		out[i] = workload.Busy()
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("empty cluster accepted")
	}
	bad := host.Chetemi()
	bad.Cores = 0
	if _, err := New([]host.Spec{bad}, Config{}); err == nil {
		t.Fatal("invalid node accepted")
	}
	if _, err := New([]host.Spec{host.Chetemi()}, Config{Algorithm: placement.Algorithm(9)}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestDeployAdmission(t *testing.T) {
	c := twoNodeCluster(t)
	// BestFit with all nodes empty: equal remaining → chetemi (40
	// cores) is fuller per unit; actually chetemi has less capacity,
	// so BestFit picks it first.
	idx, err := c.Deploy("a", vm.Small(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 0 {
		t.Fatalf("deployed to node %d, want 0 (chetemi, least remaining)", idx)
	}
	if c.Locate("a") != 0 {
		t.Fatal("Locate disagrees")
	}
	if _, err := c.Deploy("a", vm.Small(), nil); err == nil {
		t.Fatal("duplicate deploy accepted")
	}
	// The managers are the only record of placement: a name node 1's
	// manager holds is refused, though BestFit would pick node 0 for it.
	if _, err := c.nodes[1].Manager.Provision("b", vm.Small(), nil); err != nil {
		t.Fatal(err)
	}
	if c.Locate("b") != 1 {
		t.Fatalf("Locate(b) = %d, want 1", c.Locate("b"))
	}
	if _, err := c.Deploy("b", vm.Small(), nil); err == nil {
		t.Fatal("deploy of a name node 1 holds accepted")
	}
	if got := c.nodes[0].VMs(); len(got) != 1 {
		t.Fatalf("node 0 holds %v after the refused deploy, want [a]", got)
	}
}

func TestDeployFillsThenSpills(t *testing.T) {
	c := twoNodeCluster(t)
	// chetemi capacity under Eq. 7: 40 × 2400 = 96000 MHz → 13 large
	// (13 × 7200 = 93600) fit; the 14th must spill to chiclet.
	for i := 0; i < 13; i++ {
		idx, err := c.Deploy(fmt.Sprintf("l%02d", i), vm.Large(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if idx != 0 {
			t.Fatalf("large %d went to node %d, want 0", i, idx)
		}
	}
	idx, err := c.Deploy("l13", vm.Large(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Fatalf("14th large went to node %d, want 1 (spill)", idx)
	}
	if c.UsedNodes() != 2 {
		t.Fatalf("UsedNodes = %d", c.UsedNodes())
	}
}

func TestDeployRejectsWhenFull(t *testing.T) {
	spec := host.Chetemi()
	spec.Cores = 1
	spec.MemoryGB = 4
	c, err := New([]host.Spec{spec}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy("a", vm.Small(), nil); err != nil { // 1000 MHz of 2400
		t.Fatal(err)
	}
	if _, err := c.Deploy("b", vm.Large(), nil); err == nil {
		t.Fatal("infeasible deploy accepted")
	}
	if c.Locate("b") != -1 {
		t.Fatalf("refused VM located on node %d", c.Locate("b"))
	}
}

func TestMemoryAdmission(t *testing.T) {
	spec := host.Chetemi()
	spec.MemoryGB = 3
	c, err := New([]host.Spec{spec}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy("a", vm.Small(), nil); err != nil { // 2 GB
		t.Fatal(err)
	}
	if _, err := c.Deploy("b", vm.Small(), nil); err == nil {
		t.Fatal("memory overcommit accepted")
	}
}

func TestUndeploy(t *testing.T) {
	c := twoNodeCluster(t)
	if _, err := c.Deploy("a", vm.Small(), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Undeploy("a"); err != nil {
		t.Fatal(err)
	}
	if c.Locate("a") != -1 || c.UsedNodes() != 0 {
		t.Fatal("undeploy incomplete")
	}
	if err := c.Undeploy("a"); err == nil {
		t.Fatal("double undeploy accepted")
	}
	if _, err := c.Migrate("a", 1); err == nil {
		t.Fatal("migration of an undeployed VM accepted")
	}
	if err := c.Resize("a", vm.Medium(), nil); err == nil {
		t.Fatal("resize of an undeployed VM accepted")
	}
	if c.MigrationStats() != (MigrationStats{}) {
		t.Fatalf("refused migration counted: %+v", c.MigrationStats())
	}
}

func TestStepRunsControllers(t *testing.T) {
	c := twoNodeCluster(t)
	if _, err := c.Deploy("a", vm.Small(), busy(2)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	n := c.Nodes()[0]
	if n.Ctrl.Steps() != 5 {
		t.Fatalf("controller ran %d steps, want 5", n.Ctrl.Steps())
	}
	if n.Machine.NowUs() != 5_000_000 {
		t.Fatalf("machine at %d µs", n.Machine.NowUs())
	}
}

func TestMigratePreservesWorkloadProgress(t *testing.T) {
	c := twoNodeCluster(t)
	bench, err := workload.NewOpenSSL(2, 10_000_000_000, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy("a", vm.Small(), bench.Sources()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if moved, err := c.Migrate("a", 1); err != nil || !moved {
		t.Fatalf("moved=%v err=%v", moved, err)
	}
	if c.Locate("a") != 1 {
		t.Fatal("VM not on target")
	}
	if c.Migrations() != 1 {
		t.Fatalf("migrations = %d", c.Migrations())
	}
	// The benchmark keeps running on the new node and eventually
	// completes: its internal state survived the move.
	for i := 0; i < 40 && !bench.Done(); i++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !bench.Done() {
		t.Fatal("benchmark did not complete after migration")
	}
	// Source node is empty again.
	if got := len(c.Nodes()[0].VMs()); got != 0 {
		t.Fatalf("source node still hosts %d VMs", got)
	}
}

func TestMigrateValidation(t *testing.T) {
	c := twoNodeCluster(t)
	if _, err := c.Migrate("ghost", 1); err == nil {
		t.Fatal("migrating unknown VM succeeded")
	}
	if _, err := c.Deploy("a", vm.Small(), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Migrate("a", 9); err == nil {
		t.Fatal("migrating to unknown node succeeded")
	}
	if moved, err := c.Migrate("a", 0); err != nil || moved {
		t.Fatalf("no-op migration: moved=%v err=%v, want false, nil", moved, err)
	}
	if c.Migrations() != 0 {
		t.Fatal("no-op migration counted")
	}
}

func TestEnergyAccounting(t *testing.T) {
	c := twoNodeCluster(t)
	if _, err := c.Deploy("a", vm.Small(), busy(2)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	active := c.ActiveEnergyJoules()
	total := c.TotalEnergyJoules()
	if active <= 0 {
		t.Fatal("no active energy recorded")
	}
	// The empty chiclet idles at ~110 W: total must exceed active by
	// roughly its idle draw over 3 s.
	if total <= active+200 {
		t.Fatalf("total %f vs active %f: idle node not accounted", total, active)
	}
}

// End-to-end: the controller keeps per-node guarantees while the cluster
// manager spreads VMs under Eq. 7.
func TestClusterIntegrationGuarantees(t *testing.T) {
	spec := host.Chetemi()
	spec.Cores = 4 // 9600 MHz per node
	c, err := New([]host.Spec{spec, spec}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// 2 large per node: 2 × 7200 = 14400 > 9600, so one per node plus
	// one small each.
	insts := map[string]*vm.Instance{}
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("large-%d", i)
		idx, err := c.Deploy(name, vm.Large(), busy(4))
		if err != nil {
			t.Fatal(err)
		}
		insts[name] = c.Nodes()[idx].Manager.Get(name)
	}
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("small-%d", i)
		idx, err := c.Deploy(name, vm.Small(), busy(2))
		if err != nil {
			t.Fatal(err)
		}
		insts[name] = c.Nodes()[idx].Manager.Get(name)
	}
	if c.UsedNodes() != 2 {
		t.Fatalf("UsedNodes = %d, want 2", c.UsedNodes())
	}
	// Converge, then measure one period.
	for i := 0; i < 12; i++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snaps := map[string][]int64{}
	for name, inst := range insts {
		snaps[name] = inst.SnapshotCycles()
	}
	for i := 0; i < 5; i++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for name, inst := range insts {
		f := inst.MeanVCPUFreqMHz(snaps[name], 5_000_000)
		want := float64(inst.Template().FreqMHz)
		if f < want*0.93 {
			t.Fatalf("%s at %.0f MHz, below guarantee %.0f", name, f, want)
		}
	}
}
