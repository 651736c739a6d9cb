package platform

import (
	"os"
	"path/filepath"
	"testing"

	"vfreq/internal/procfs"
)

// fixtureHost lays out a fake Linux filesystem with one 2-vCPU KVM guest,
// exercising the exact file formats the real backend parses.
func fixtureHost(t *testing.T) *Linux {
	t.Helper()
	root := t.TempDir()
	mk := func(path, content string) {
		t.Helper()
		full := filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// sysfs cpufreq for 2 cores.
	mk("sys/cpu/online", "0-1\n")
	mk("sys/cpu/cpu0/cpufreq/scaling_max_freq", "2400000\n")
	mk("sys/cpu/cpu0/cpufreq/scaling_cur_freq", "2200000\n")
	mk("sys/cpu/cpu1/cpufreq/scaling_cur_freq", "1200000\n")
	// cgroup v2 machine.slice with one libvirt-style guest.
	scope := "cgroup/machine-qemu-guest1.scope"
	mk(scope+"/vcpu0/cpu.stat", "usage_usec 123456\nuser_usec 123456\nnr_periods 0\nnr_throttled 0\nthrottled_usec 0\n")
	mk(scope+"/vcpu0/cgroup.threads", "4242\n")
	mk(scope+"/vcpu0/cpu.max", "max 100000\n")
	mk(scope+"/vcpu0/cpu.max.burst", "0\n")
	mk(scope+"/vcpu1/cpu.stat", "usage_usec 99\n")
	mk(scope+"/vcpu1/cgroup.threads", "4243\n")
	mk(scope+"/vcpu1/cpu.max", "max 100000\n")
	mk(scope+"/vcpu1/cpu.max.burst", "0\n")
	// A scope without vcpus and a non-scope dir must be ignored.
	mk("cgroup/machine-qemu-empty.scope/cpu.stat", "usage_usec 0\n")
	mk("cgroup/other.mount/cpu.stat", "usage_usec 0\n")
	// /proc/<tid>/stat for the vCPU thread.
	mk("proc/4242/stat", procfs.FormatStat(4242, "CPU 0/KVM", 120_000, 1))

	l := &Linux{
		NodeName:   "fixture",
		CgroupRoot: filepath.Join(root, "cgroup"),
		ProcRoot:   filepath.Join(root, "proc"),
		SysCPURoot: filepath.Join(root, "sys/cpu"),
		Cores:      2,
		MaxFreqMHz: 2400,
		Freqs:      map[string]int64{"guest1": 1800},
	}
	t.Cleanup(func() { closeWatch(l) })
	return l
}

func TestLinuxListVMs(t *testing.T) {
	l := fixtureHost(t)
	vms, err := l.ListVMs()
	if err != nil {
		t.Fatal(err)
	}
	if len(vms) != 1 {
		t.Fatalf("got %d VMs, want 1 (empty scope and foreign dirs ignored)", len(vms))
	}
	if vms[0].Name != "guest1" || vms[0].VCPUs != 2 || vms[0].FreqMHz != 1800 {
		t.Fatalf("vm = %+v", vms[0])
	}
}

func TestLinuxVMWithoutTemplateSkipped(t *testing.T) {
	l := fixtureHost(t)
	l.Freqs = nil
	vms, err := l.ListVMs()
	if err != nil {
		t.Fatal(err)
	}
	if len(vms) != 0 {
		t.Fatalf("unregistered VM listed: %+v", vms)
	}
}

func TestLinuxUsage(t *testing.T) {
	l := fixtureHost(t)
	u, err := l.UsageUs("guest1", 0)
	if err != nil || u != 123456 {
		t.Fatalf("usage = %d, %v", u, err)
	}
}

func TestLinuxSetAndClearMax(t *testing.T) {
	l := fixtureHost(t)
	if err := l.SetMax("guest1", 0, 25_000, 100_000); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(l.CgroupRoot, "machine-qemu-guest1.scope/vcpu0/cpu.max"))
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != "25000 100000" {
		t.Fatalf("cpu.max = %q", raw)
	}
	if err := l.ClearMax("guest1", 0); err != nil {
		t.Fatal(err)
	}
	raw, _ = os.ReadFile(filepath.Join(l.CgroupRoot, "machine-qemu-guest1.scope/vcpu0/cpu.max"))
	if string(raw) != "max" {
		t.Fatalf("cleared cpu.max = %q", raw)
	}
	if err := l.SetBurst("guest1", 0, 5_000); err != nil {
		t.Fatal(err)
	}
	raw, _ = os.ReadFile(filepath.Join(l.CgroupRoot, "machine-qemu-guest1.scope/vcpu0/cpu.max.burst"))
	if string(raw) != "5000" {
		t.Fatalf("cpu.max.burst = %q", raw)
	}
}

func TestLinuxThreadAndPlacement(t *testing.T) {
	l := fixtureHost(t)
	tid, err := l.ThreadID("guest1", 0)
	if err != nil || tid != 4242 {
		t.Fatalf("tid = %d, %v", tid, err)
	}
	core, err := l.LastCPU(4242)
	if err != nil || core != 1 {
		t.Fatalf("last cpu = %d, %v", core, err)
	}
	f, err := l.CoreFreqMHz(1)
	if err != nil || f != 1200 {
		t.Fatalf("core freq = %d, %v", f, err)
	}
	if _, err := l.LastCPU(9999); err == nil {
		t.Fatal("missing tid read succeeded")
	}
}

func TestLinuxNodeInfo(t *testing.T) {
	l := fixtureHost(t)
	n := l.Node()
	if n.Name != "fixture" || n.Cores != 2 || n.MaxFreqMHz != 2400 {
		t.Fatalf("node = %+v", n)
	}
}
