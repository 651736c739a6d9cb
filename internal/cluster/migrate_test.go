package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"vfreq/internal/core"
	"vfreq/internal/host"
	"vfreq/internal/metrics"
	"vfreq/internal/placement"
	"vfreq/internal/vm"
	"vfreq/internal/workload"
)

// smallSpec is a 4-core node (9600 MHz of Eq. 7 capacity) — small enough
// that a couple of templates saturate it.
func smallSpec(name string) host.Spec {
	s := host.Chetemi()
	s.Name = name
	s.Cores = 4
	return s
}

// light builds n workload sources that demand well under the Eq. 2
// guarantee, so the VM earns credit every step — the wallet the
// migration tests watch travel.
func light(n int) []workload.Source {
	out := make([]workload.Source, n)
	for i := range out {
		out[i] = &workload.Constant{Level: 0.05}
	}
	return out
}

// normalizeSnap zeroes the VMSnapshot fields a migration documents as
// target-relative: the usage baseline (counters restart at zero), the
// thread IDs and core pins (re-read on the target host).
func normalizeSnap(vs core.VMSnapshot) core.VMSnapshot {
	out := vs
	out.VCPUs = append([]core.VCPUSnapshot(nil), vs.VCPUs...)
	for i := range out.VCPUs {
		out.VCPUs[i].PrevUsageUs = 0
		out.VCPUs[i].TID = 0
		out.VCPUs[i].LastCore = 0
	}
	return out
}

// A committed migration carries the controller state: the target's
// controller resumes with the source's credit wallet, histories and
// breaker phase, and the source's controller forgets the VM at once.
func TestMigrateCarriesControllerState(t *testing.T) {
	c := twoNodeCluster(t)
	reg := metrics.NewRegistry()
	c.ArmMetrics(reg)
	if _, err := c.Deploy("a", vm.Small(), light(2)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := c.Nodes()[0].Ctrl.ExportVM("a")
	if err != nil {
		t.Fatal(err)
	}
	if snap.CreditUs <= 0 {
		t.Fatalf("no credit earned before the move (%d); the test would prove nothing", snap.CreditUs)
	}
	if moved, err := c.Migrate("a", 1); err != nil || !moved {
		t.Fatalf("moved=%v err=%v", moved, err)
	}
	if c.Nodes()[0].Ctrl.VM("a") != nil {
		t.Fatal("source controller still tracks the migrated VM")
	}
	st := c.Nodes()[1].Ctrl.VM("a")
	if st == nil {
		t.Fatal("target controller did not adopt the VM")
	}
	if st.CreditUs != snap.CreditUs {
		t.Fatalf("credit %d on the target, exported %d", st.CreditUs, snap.CreditUs)
	}
	if st.VCPUs[0].Hist.Len() == 0 {
		t.Fatal("history ring not carried")
	}
	want := MigrationStats{Attempted: 1, Committed: 1, StateCarried: 1}
	if got := c.MigrationStats(); got != want {
		t.Fatalf("MigrationStats = %+v, want %+v", got, want)
	}
	for metric, want := range map[string]int64{
		"vfreq_cluster_migration_attempted_total":     1,
		"vfreq_cluster_migration_committed_total":     1,
		"vfreq_cluster_migration_state_carried_total": 1,
	} {
		if got := reg.Counter(metric, "").Value(); got != want {
			t.Fatalf("%s = %d, want %d", metric, got, want)
		}
	}
	// The cluster keeps stepping cleanly and the VM stays controlled.
	for i := 0; i < 3; i++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if c.Nodes()[1].Ctrl.VM("a") == nil {
		t.Fatal("adopted VM lost after stepping")
	}
}

// The twin test: a cluster that migrates its VM and a cluster that
// stays put must hold bit-identical controller state for the VM, modulo
// the documented target-relative fields — immediately after the move
// and after further steps.
func TestMigrateTwinAgainstStay(t *testing.T) {
	mk := func() *Cluster {
		c, err := New([]host.Spec{smallSpec("twin-a"), smallSpec("twin-b")}, Config{StepWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Deploy("a", vm.Small(), busy(2)); err != nil {
			t.Fatal(err)
		}
		return c
	}
	stay, move := mk(), mk()
	step := func(c *Cluster) {
		t.Helper()
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		step(stay)
		step(move)
	}
	if moved, err := move.Migrate("a", 1); err != nil || !moved {
		t.Fatalf("moved=%v err=%v", moved, err)
	}
	if move.MigrationStats().StateCarried != 1 {
		t.Fatalf("state not carried: %+v", move.MigrationStats())
	}
	export := func(c *Cluster, node int) core.VMSnapshot {
		t.Helper()
		snap, err := c.Nodes()[node].Ctrl.ExportVM("a")
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	// Immediately after the move: identical modulo baselines.
	if got, want := normalizeSnap(export(move, 1)), normalizeSnap(export(stay, 0)); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-move state diverged from the stay twin:\n got %+v\nwant %+v", got, want)
	}
	// And it stays identical as both twins keep stepping: the control
	// loop resumed, it did not restart.
	for i := 0; i < 5; i++ {
		step(stay)
		step(move)
		if got, want := normalizeSnap(export(move, 1)), normalizeSnap(export(stay, 0)); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d after the move diverged:\n got %+v\nwant %+v", i+1, got, want)
		}
	}
}

// The satellite regression: a Migrate whose target provision fails must
// leave the cluster bit-identical to its pre-migration state — the VM
// keeps running on the source, nothing is lost, no counter moves.
func TestMigrateRollbackOnTargetProvisionFailure(t *testing.T) {
	// CoreCount policy so the cluster-level fits check passes while the
	// target manager rejects the template (its F exceeds the node's
	// F_MAX) — a provision-time fault, exactly the lost-VM bug's shape.
	weak := smallSpec("weak")
	weak.MinMHz = 500
	weak.MaxMHz = 1000
	weak.TurboMHz = 1000
	c, err := New([]host.Spec{smallSpec("ok"), weak}, Config{
		Policy: placement.Policy{Mode: placement.CoreCount, Factor: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	tpl := vm.Template{Name: "mid", VCPUs: 2, FreqMHz: 2000, MemoryGB: 2}
	if _, err := c.Deploy("a", tpl, busy(2)); err != nil {
		t.Fatal(err)
	}
	if c.Locate("a") != 0 {
		t.Fatal("test expects the VM on node 0")
	}
	for i := 0; i < 3; i++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	before, err := c.Nodes()[0].Ctrl.ExportVM("a")
	if err != nil {
		t.Fatal(err)
	}
	n0, n1 := c.Nodes()[0], c.Nodes()[1]
	before0 := used(n0)

	moved, err := c.Migrate("a", 1)
	if err == nil || moved {
		t.Fatalf("moved=%v err=%v, want a failed prepare", moved, err)
	}
	if !strings.Contains(err.Error(), "preparing") {
		t.Fatalf("error %v does not name the prepare phase", err)
	}
	// Bit-identical pre-migration state: location, node loads,
	// controller state, and no migration counted.
	if c.Locate("a") != 0 {
		t.Fatal("VM lost or moved after a failed prepare")
	}
	if got := used(n0); got != before0 {
		t.Fatalf("source load changed: %v, want %v", got, before0)
	}
	if used(n1) != (placement.Load{}) || len(n1.VMs()) != 0 {
		t.Fatalf("target bookkeeping dirtied: used=%+v deployed=%d", used(n1), len(n1.VMs()))
	}
	if n1.Manager.Get("a") != nil {
		t.Fatal("target manager kept a half-provisioned VM")
	}
	after, err := c.Nodes()[0].Ctrl.ExportVM("a")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("source controller state changed:\n got %+v\nwant %+v", after, before)
	}
	if c.Migrations() != 0 {
		t.Fatalf("Migrations = %d after a failed prepare", c.Migrations())
	}
	want := MigrationStats{Attempted: 1}
	if got := c.MigrationStats(); got != want {
		t.Fatalf("MigrationStats = %+v, want %+v", got, want)
	}
	// The VM is alive: further steps control it on the source.
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if c.Nodes()[0].Ctrl.VM("a") == nil {
		t.Fatal("VM no longer controlled after the failed migration")
	}
}

// A VM whose source scope cgroup vanished out of band, its threads with
// it, still migrates: the prepared target copy runs its workloads, and the
// commit-side destroy only forgets the source instance.
func TestMigrateSourceScopeGone(t *testing.T) {
	c := twoNodeCluster(t)
	if _, err := c.Deploy("a", vm.Small(), busy(2)); err != nil {
		t.Fatal(err)
	}
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	scope := c.Nodes()[0].Manager.Get("a").VCPUThread(0).Group.Parent
	if err := c.Nodes()[0].Machine.Sched.RemoveGroup(scope); err != nil {
		t.Fatal(err)
	}
	moved, err := c.Migrate("a", 1)
	if err != nil || !moved {
		t.Fatalf("moved=%v err=%v, want a committed migration", moved, err)
	}
	if c.Nodes()[0].Manager.Get("a") != nil || c.Nodes()[1].Manager.Get("a") == nil {
		t.Fatal("the VM is not on the target alone")
	}
	want := MigrationStats{Attempted: 1, Committed: 1, StateCarried: 1}
	if got := c.MigrationStats(); got != want || c.Migrations() != 1 {
		t.Fatalf("MigrationStats = %+v, Migrations = %d; want %+v, 1", got, c.Migrations(), want)
	}
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if c.Nodes()[1].Ctrl.VM("a") == nil {
		t.Fatal("VM not controlled on the target")
	}
}

// The no-op contract: migrating a VM onto its own node reports
// (false, nil) and leaves every counter untouched, so Rebalance
// accounting stays exact.
func TestMigrateNoopContract(t *testing.T) {
	c := twoNodeCluster(t)
	if _, err := c.Deploy("a", vm.Small(), busy(2)); err != nil {
		t.Fatal(err)
	}
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	before, err := c.Nodes()[0].Ctrl.ExportVM("a")
	if err != nil {
		t.Fatal(err)
	}
	moved, err := c.Migrate("a", 0)
	if err != nil || moved {
		t.Fatalf("no-op returned moved=%v err=%v, want false, nil", moved, err)
	}
	if c.Migrations() != 0 || c.MigrationStats() != (MigrationStats{}) {
		t.Fatalf("no-op touched counters: migrations=%d stats=%+v", c.Migrations(), c.MigrationStats())
	}
	after, err := c.Nodes()[0].Ctrl.ExportVM("a")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, before) {
		t.Fatal("no-op changed controller state")
	}
}

// The Rebalance sweep continues past a node whose VMs have no feasible
// target: later overloaded nodes are still drained, and the stranding
// is reported alongside the committed count.
func TestRebalanceContinuesPastStrandedNode(t *testing.T) {
	c, err := New([]host.Spec{smallSpec("n0"), smallSpec("n1"), smallSpec("n2")}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Node 0: two Large (14400 MHz > 9600) — no target can take a Large
	// once node 2 carries a Medium (remaining 4800 < 7200) and node 1 is
	// itself overloaded.
	if _, err := c.nodes[0].Manager.Provision("l0", vm.Large(), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.nodes[0].Manager.Provision("l1", vm.Large(), nil); err != nil {
		t.Fatal(err)
	}
	// Node 1: two Medium + one Small (10600 > 9600); the Small fits
	// node 2.
	if _, err := c.nodes[1].Manager.Provision("m0", vm.Medium(), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.nodes[1].Manager.Provision("m1", vm.Medium(), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.nodes[1].Manager.Provision("s0", vm.Small(), nil); err != nil {
		t.Fatal(err)
	}
	// Node 2: one Medium (4800 of 9600).
	if _, err := c.nodes[2].Manager.Provision("m2", vm.Medium(), nil); err != nil {
		t.Fatal(err)
	}
	if got := c.Overloaded(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Overloaded = %v, want [0 1]", got)
	}

	moved, err := c.Rebalance()
	if err == nil {
		t.Fatal("stranded node 0 not reported")
	}
	if !strings.Contains(err.Error(), "node 0") {
		t.Fatalf("error %v does not name the stranded node", err)
	}
	if moved != 1 {
		t.Fatalf("moved %d, want 1 (node 1's Small despite node 0 stranding)", moved)
	}
	if c.Locate("s0") != 2 {
		t.Fatalf("s0 on node %d, want 2", c.Locate("s0"))
	}
	if got := c.Overloaded(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Overloaded after sweep = %v, want [0] only", got)
	}
}

// Evacuation rides the same prepare→commit path, so a VM moved off a
// failed node keeps its wallet and history — ExportVM needs no reads
// from the dead host.
func TestEvacuationCarriesState(t *testing.T) {
	c, err := New([]host.Spec{host.Chetemi(), host.Chiclet()}, Config{FailThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy("a", vm.Small(), light(2)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := c.Nodes()[0].Ctrl.ExportVM("a")
	if err != nil {
		t.Fatal(err)
	}
	if snap.CreditUs <= 0 {
		t.Fatal("no credit before the failure; the test would prove nothing")
	}
	c.Nodes()[0].Machine.FailReads("machine-", errors.New("host unreachable"), -1)
	for i := 0; i < 2; i++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if c.Locate("a") != 1 {
		t.Fatalf("VM not evacuated: on node %d", c.Locate("a"))
	}
	st := c.Nodes()[1].Ctrl.VM("a")
	if st == nil {
		t.Fatal("target controller did not adopt the evacuated VM")
	}
	// The wallet survived the node failure (degraded steps accrue no
	// credit, so it is exactly the pre-failure balance).
	if st.CreditUs != snap.CreditUs {
		t.Fatalf("evacuated credit %d, want %d carried", st.CreditUs, snap.CreditUs)
	}
	if st.VCPUs[0].Hist.Len() == 0 {
		t.Fatal("evacuated history ring empty: VM was cold-started, not adopted")
	}
	if got := c.MigrationStats(); got.StateCarried != 1 {
		t.Fatalf("MigrationStats = %+v, want the evacuation state-carried", got)
	}
}

// 100 seeds of migrate churn against a no-migration baseline: the
// tracked population stays consistent, every commit conserves the
// credit wallet, and the aggregate VM/vCPU view matches the baseline.
func TestMigrateChurnTwinHundredSeeds(t *testing.T) {
	spec := host.Chetemi()
	spec.Cores = 8
	seeds := 100
	if testing.Short() {
		seeds = 10
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		mk := func() *Cluster {
			c, err := New([]host.Spec{spec, spec}, Config{StepWorkers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				if _, err := c.Deploy(fmt.Sprintf("vm%d", i), vm.Small(), busy(2)); err != nil {
					t.Fatal(err)
				}
			}
			return c
		}
		churn, base := mk(), mk()
		for step := 0; step < 10; step++ {
			if err := churn.Step(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if err := base.Step(); err != nil {
				t.Fatalf("seed %d step %d (baseline): %v", seed, step, err)
			}
			name := fmt.Sprintf("vm%d", rng.Intn(4))
			target := rng.Intn(2)
			var pre int64 = -1
			if src := churn.Locate(name); src != target {
				if st := churn.Nodes()[src].Ctrl.VM(name); st != nil {
					pre = st.CreditUs
				}
			}
			carried := churn.MigrationStats().StateCarried
			moved, err := churn.Migrate(name, target)
			if err != nil {
				t.Fatalf("seed %d step %d: migrate %s→%d: %v", seed, step, name, target, err)
			}
			if moved && churn.MigrationStats().StateCarried == carried+1 && pre >= 0 {
				got := churn.Nodes()[target].Ctrl.VM(name).CreditUs
				if got != pre {
					t.Fatalf("seed %d step %d: credit not conserved across %s→%d: %d, want %d",
						seed, step, name, target, got, pre)
				}
			}
		}
		// Aggregate twin: same population, fully tracked, no VM lost or
		// double-tracked anywhere.
		stats := churn.MigrationStats()
		if churn.Migrations() != stats.Committed || stats.Committed > stats.Attempted {
			t.Fatalf("seed %d: inconsistent stats %+v vs Migrations %d", seed, stats, churn.Migrations())
		}
		for _, tc := range []*Cluster{churn, base} {
			var names []string
			vcpus := 0
			for i, n := range tc.Nodes() {
				for _, st := range n.Ctrl.VMs() {
					if tc.Locate(st.Info.Name) != i {
						t.Fatalf("seed %d: %s tracked on node %d but located on %d",
							seed, st.Info.Name, i, tc.Locate(st.Info.Name))
					}
					names = append(names, st.Info.Name)
					vcpus += len(st.VCPUs)
				}
			}
			sort.Strings(names)
			if got, want := fmt.Sprint(names), "[vm0 vm1 vm2 vm3]"; got != want {
				t.Fatalf("seed %d: tracked VMs %s, want %s", seed, got, want)
			}
			if vcpus != 8 {
				t.Fatalf("seed %d: %d tracked vCPUs, want 8", seed, vcpus)
			}
		}
	}
}
