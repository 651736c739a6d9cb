package vm

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"vfreq/internal/host"
	"vfreq/internal/sched"
	"vfreq/internal/workload"
)

func newManager(t *testing.T) *Manager {
	t.Helper()
	m, err := host.New(host.Chetemi())
	if err != nil {
		t.Fatal(err)
	}
	mg, err := NewManager(m)
	if err != nil {
		t.Fatal(err)
	}
	return mg
}

func TestTemplatePresets(t *testing.T) {
	for _, tpl := range []Template{Small(), Medium(), Large()} {
		if err := tpl.Validate(); err != nil {
			t.Fatalf("%s: %v", tpl.Name, err)
		}
	}
	if Small().FreqMHz != 500 || Medium().FreqMHz != 1200 || Large().FreqMHz != 1800 {
		t.Fatal("preset frequencies do not match the paper")
	}
	if Small().VCPUs != 2 || Medium().VCPUs != 4 || Large().VCPUs != 4 {
		t.Fatal("preset vCPU counts do not match the paper")
	}
}

func TestTemplateValidation(t *testing.T) {
	cases := []Template{
		{Name: "", VCPUs: 1, FreqMHz: 100, MemoryGB: 1},
		{Name: "x", VCPUs: 0, FreqMHz: 100, MemoryGB: 1},
		{Name: "x", VCPUs: 1, FreqMHz: 0, MemoryGB: 1},
		{Name: "x", VCPUs: 1, FreqMHz: 100, MemoryGB: 0},
	}
	for i, tpl := range cases {
		if err := tpl.Validate(); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestProvisionCreatesKVMLayout(t *testing.T) {
	mg := newManager(t)
	inst, err := mg.Provision("vm0", Small(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cgroups := mg.Machine().Cgroups
	for _, rel := range []string{ScopePath("vm0"), VCPUCgroup("vm0", 0), VCPUCgroup("vm0", 1), ScopePath("vm0") + "/emulator"} {
		if _, err := cgroups.Group(rel); err != nil {
			t.Fatalf("missing cgroup %s: %v", rel, err)
		}
	}
	// Each vCPU cgroup holds exactly one thread: the vCPU's.
	for j := 0; j < 2; j++ {
		g, _ := cgroups.Group(VCPUCgroup("vm0", j))
		if len(g.Threads) != 1 || g.Threads[0] != inst.VCPUThread(j) || inst.VCPUThread(j).Group != g {
			t.Fatalf("vcpu%d cgroup holds %d threads, want its vCPU thread alone", j, len(g.Threads))
		}
	}
}

// TestEmulatedTreeInventory lists every cgroup a booted node with one VM
// holds, by the path the Tree names it with: the root, machine.slice, the
// VM scope and its three leaves, each holding the threads libvirt puts
// there. A cgroup stays in the model only while something reads it (the
// controller through platform.Sim, the ablation harness, a benchmark
// workload), so a new entry here has to name its reader.
func TestEmulatedTreeInventory(t *testing.T) {
	spec := host.Chetemi()
	spec.Cores = 2
	m, err := host.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	mg, err := NewManager(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mg.Provision("vm0", Small(), nil); err != nil {
		t.Fatal(err)
	}
	var got []string
	var walk func(g *sched.Group)
	walk = func(g *sched.Group) {
		rel := strings.TrimPrefix(g.Path(), "/")
		if tg, err := m.Cgroups.Group(rel); err != nil || tg != g {
			t.Fatalf("the Tree names %q as %v, %v; want the scheduler's group", rel, tg, err)
		}
		var tids []string
		for _, th := range g.Threads {
			tids = append(tids, fmt.Sprint(th.ID))
		}
		got = append(got, fmt.Sprintf("/%s [%s]", rel, strings.Join(tids, " ")))
		for _, c := range g.Children {
			walk(c)
		}
	}
	walk(m.Sched.Root())
	sort.Strings(got)
	want := []string{
		"/ []",
		"/machine.slice []",
		"/machine.slice/machine-qemu-vm0.scope []",
		"/machine.slice/machine-qemu-vm0.scope/emulator [3]",
		"/machine.slice/machine-qemu-vm0.scope/vcpu0 [1]",
		"/machine.slice/machine-qemu-vm0.scope/vcpu1 [2]",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("cgroup tree holds\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestProvisionValidation(t *testing.T) {
	mg := newManager(t)
	if _, err := mg.Provision("vm0", Small(), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := mg.Provision("vm0", Small(), nil); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := mg.Provision("vm1", Small(), []workload.Source{workload.Busy()}); err == nil {
		t.Fatal("wrong source count accepted")
	}
	fast := Template{Name: "fast", VCPUs: 1, FreqMHz: 5000, MemoryGB: 1}
	if _, err := mg.Provision("vm2", fast, nil); err == nil {
		t.Fatal("frequency above node F_MAX accepted")
	}
}

func TestWorkloadRunsAndCyclesAccrue(t *testing.T) {
	mg := newManager(t)
	srcs := []workload.Source{workload.Busy(), workload.Busy()}
	inst, err := mg.Provision("vm0", Small(), srcs)
	if err != nil {
		t.Fatal(err)
	}
	mg.Machine().Advance(1_000_000)
	for j := 0; j < 2; j++ {
		if inst.VCPUCycles(j) == 0 {
			t.Fatalf("vCPU %d attained no cycles", j)
		}
		if inst.VCPUThread(j).UsageUs == 0 {
			t.Fatalf("vCPU %d never ran", j)
		}
	}
	// Uncontended VM: each vCPU has a core to itself, so the measured
	// virtual frequency approaches the hardware envelope.
	before := make([]int64, 2)
	snap := inst.SnapshotCycles()
	mg.Machine().Advance(1_000_000)
	f := inst.MeanVCPUFreqMHz(snap, 1_000_000)
	if f < 2000 {
		t.Fatalf("uncontended vCPU freq = %.0f MHz, want > 2000", f)
	}
	_ = before
}

func TestDestroyCleansUp(t *testing.T) {
	mg := newManager(t)
	inst, err := mg.Provision("vm0", Small(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tid := inst.VCPUThread(0).ID
	if err := mg.Destroy("vm0"); err != nil {
		t.Fatal(err)
	}
	if _, err := mg.Machine().Cgroups.Group(ScopePath("vm0")); err == nil {
		t.Fatal("scope cgroup survived destroy")
	}
	if mg.Machine().Sched.Thread(tid) != nil {
		t.Fatal("vCPU thread survived destroy")
	}
	if mg.Get("vm0") != nil || len(mg.List()) != 0 {
		t.Fatal("registry not cleaned")
	}
	if err := mg.Destroy("vm0"); err == nil {
		t.Fatal("double destroy succeeded")
	}
}

func TestListOrder(t *testing.T) {
	mg := newManager(t)
	for i := 0; i < 3; i++ {
		if _, err := mg.Provision(fmt.Sprintf("vm%d", i), Small(), nil); err != nil {
			t.Fatal(err)
		}
	}
	list := mg.List()
	for i, inst := range list {
		if inst.Name() != fmt.Sprintf("vm%d", i) {
			t.Fatalf("order wrong: %d = %s", i, inst.Name())
		}
	}
}

// The CFS observation that motivates the paper: without control, two
// saturated VMs get equal total time regardless of vCPU count.
func TestUncontrolledVMFairness(t *testing.T) {
	mg := newManager(t)
	small, err := mg.Provision("small", Small(), []workload.Source{workload.Busy(), workload.Busy()})
	if err != nil {
		t.Fatal(err)
	}
	big, err := mg.Provision("large", Large(),
		[]workload.Source{workload.Busy(), workload.Busy(), workload.Busy(), workload.Busy()})
	if err != nil {
		t.Fatal(err)
	}
	// Constrain contention: use a tiny machine.
	_ = small
	_ = big
	// On a 40-core machine 6 busy vCPUs are uncontended; instead check
	// per-VM totals on a small host.
	m2, _ := host.New(host.Spec{
		Name: "tiny", Cores: 2, MinMHz: 1200, MaxMHz: 2400, MemoryGB: 8,
		Governor: "performance",
		Power:    host.Chetemi().Power,
	})
	mg2, _ := NewManager(m2)
	s2, _ := mg2.Provision("small", Small(), []workload.Source{workload.Busy(), workload.Busy()})
	l2, _ := mg2.Provision("large", Large(),
		[]workload.Source{workload.Busy(), workload.Busy(), workload.Busy(), workload.Busy()})
	m2.Advance(2_000_000)
	var st, lt int64
	for j := 0; j < 2; j++ {
		st += s2.VCPUThread(j).UsageUs
	}
	for j := 0; j < 4; j++ {
		lt += l2.VCPUThread(j).UsageUs
	}
	ratio := float64(st) / float64(lt)
	if ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("per-VM usage ratio = %.2f, want ~1 (CFS shares per VM)", ratio)
	}
}
