package vm

import (
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
	"testing"

	"vfreq/internal/cgroupfs"
	"vfreq/internal/host"
	"vfreq/internal/memfs"
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
	fs := mg.Machine().FS
	base := cgroupfs.DefaultMount + "/" + ScopePath("vm0")
	for _, p := range []string{base, base + "/vcpu0", base + "/vcpu1", base + "/emulator"} {
		if !fs.IsDir(p) {
			t.Fatalf("missing cgroup dir %s", p)
		}
	}
	// Each vCPU cgroup holds exactly one thread.
	content, _ := fs.ReadFile(base + "/vcpu0/cgroup.threads")
	tid, n, err := cgroupfs.ParseSingleTID([]byte(content))
	if err != nil || n != 1 {
		t.Fatalf("vcpu0 threads = %q, %v", content, err)
	}
	if tid != inst.VCPUThread(0).ID {
		t.Fatal("cgroup tid mismatch")
	}
	// Field 2 of /proc/<tid>/stat carries the KVM thread name.
	stat, _ := fs.ReadFile(fmt.Sprintf("/proc/%d/stat", tid))
	if want := fmt.Sprintf("%d (CPU 0/KVM) ", tid); !strings.HasPrefix(stat, want) {
		t.Fatalf("stat = %q, want prefix %q", stat, want)
	}
}

// TestEmulatedTreeInventory lists every pseudo-file a booted node with one
// VM serves. A file stays in the emulation only while something reads it
// (the controller through platform.Sim, the ablation harness, a benchmark
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
	var walk func(dir string)
	walk = func(dir string) {
		names, err := m.FS.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			p := path.Join(dir, name)
			if m.FS.IsDir(p) {
				walk(p)
			} else {
				got = append(got, p)
			}
		}
	}
	walk("/")
	sort.Strings(got)
	// Two vCPU threads and the emulator thread; two cores; the NUMA tree
	// (kept for platform.Topology, which benchmark/ compiles against); the
	// root cgroup, machine.slice, the VM scope and its three leaves.
	want := []string{
		"/proc/1/stat",
		"/proc/2/stat",
		"/proc/3/stat",
		"/sys/devices/system/cpu/cpu0/cpufreq/scaling_cur_freq",
		"/sys/devices/system/cpu/cpu1/cpufreq/scaling_cur_freq",
		"/sys/devices/system/node/node0/cpulist",
		"/sys/devices/system/node/node1/cpulist",
		"/sys/devices/system/node/online",
		"/sys/fs/cgroup/cgroup.threads",
		"/sys/fs/cgroup/cpu.max",
		"/sys/fs/cgroup/cpu.max.burst",
		"/sys/fs/cgroup/cpu.stat",
		"/sys/fs/cgroup/machine.slice/cgroup.threads",
		"/sys/fs/cgroup/machine.slice/cpu.max",
		"/sys/fs/cgroup/machine.slice/cpu.max.burst",
		"/sys/fs/cgroup/machine.slice/cpu.stat",
		"/sys/fs/cgroup/machine.slice/machine-qemu-vm0.scope/cgroup.threads",
		"/sys/fs/cgroup/machine.slice/machine-qemu-vm0.scope/cpu.max",
		"/sys/fs/cgroup/machine.slice/machine-qemu-vm0.scope/cpu.max.burst",
		"/sys/fs/cgroup/machine.slice/machine-qemu-vm0.scope/cpu.stat",
		"/sys/fs/cgroup/machine.slice/machine-qemu-vm0.scope/emulator/cgroup.threads",
		"/sys/fs/cgroup/machine.slice/machine-qemu-vm0.scope/emulator/cpu.max",
		"/sys/fs/cgroup/machine.slice/machine-qemu-vm0.scope/emulator/cpu.max.burst",
		"/sys/fs/cgroup/machine.slice/machine-qemu-vm0.scope/emulator/cpu.stat",
		"/sys/fs/cgroup/machine.slice/machine-qemu-vm0.scope/vcpu0/cgroup.threads",
		"/sys/fs/cgroup/machine.slice/machine-qemu-vm0.scope/vcpu0/cpu.max",
		"/sys/fs/cgroup/machine.slice/machine-qemu-vm0.scope/vcpu0/cpu.max.burst",
		"/sys/fs/cgroup/machine.slice/machine-qemu-vm0.scope/vcpu0/cpu.stat",
		"/sys/fs/cgroup/machine.slice/machine-qemu-vm0.scope/vcpu1/cgroup.threads",
		"/sys/fs/cgroup/machine.slice/machine-qemu-vm0.scope/vcpu1/cpu.max",
		"/sys/fs/cgroup/machine.slice/machine-qemu-vm0.scope/vcpu1/cpu.max.burst",
		"/sys/fs/cgroup/machine.slice/machine-qemu-vm0.scope/vcpu1/cpu.stat",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("emulated tree serves\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
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
	fs := mg.Machine().FS
	if _, err := fs.ReadFile(cgroupfs.DefaultMount + "/" + ScopePath("vm0")); !errors.Is(err, memfs.ErrNotExist) {
		t.Fatal("scope cgroup survived destroy")
	}
	if _, err := fs.ReadFile(fmt.Sprintf("/proc/%d", tid)); !errors.Is(err, memfs.ErrNotExist) {
		t.Fatal("proc entry survived destroy")
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
