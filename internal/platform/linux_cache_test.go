package platform

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"vfreq/internal/procfs"
	"vfreq/internal/raceflag"
)

// TestLinuxCachedReadsSeeFreshContent: the kept-open descriptors pread at
// offset zero, so a counter that advances between periods (as cpu.stat
// does) is re-read, not served stale — including after the file shrinks.
func TestLinuxCachedReadsSeeFreshContent(t *testing.T) {
	l := fixtureHost(t)
	statPath := filepath.Join(l.CgroupRoot, "machine-qemu-guest1.scope/vcpu0/cpu.stat")

	if u, err := l.UsageUs("guest1", 0); err != nil || u != 123456 {
		t.Fatalf("first read: %d, %v", u, err)
	}
	if err := os.WriteFile(statPath, []byte("usage_usec 123999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if u, err := l.UsageUs("guest1", 0); err != nil || u != 123999 {
		t.Fatalf("second read: %d, %v (stale descriptor?)", u, err)
	}
	// Shrinking content (shorter than the previous read) must not leave
	// trailing garbage in the parse.
	if err := os.WriteFile(statPath, []byte("usage_usec 7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if u, err := l.UsageUs("guest1", 0); err != nil || u != 7 {
		t.Fatalf("shrunk read: %d, %v", u, err)
	}
}

// TestLinuxReopensAfterError: a vanished-and-recreated cgroup (VM
// restart) invalidates the cached descriptor, and the next read reopens
// the path instead of failing forever.
func TestLinuxReopensAfterError(t *testing.T) {
	l := fixtureHost(t)
	dir := filepath.Join(l.CgroupRoot, "machine-qemu-guest1.scope/vcpu0")
	if _, err := l.UsageUs("guest1", 0); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	// The open descriptor still answers preads on most filesystems, so
	// force the miss by pruning (what ListVMs does when the VM vanishes).
	l.pruneDeparted(nil)
	if _, err := l.UsageUs("guest1", 0); err == nil {
		t.Fatal("read of removed cgroup succeeded")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "cpu.stat"), []byte("usage_usec 55\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if u, err := l.UsageUs("guest1", 0); err != nil || u != 55 {
		t.Fatalf("read after recreation: %d, %v", u, err)
	}
}

// TestLinuxProcHandlesPruned: a /proc/<tid>/stat handle lives as long as
// its vCPU runs on that thread. A tid change (VM restart under the same
// cgroup) and a departure both bring len(l.procs) back to the live vCPU
// count, where before only a failed read ever closed one.
func TestLinuxProcHandlesPruned(t *testing.T) {
	l := fixtureHost(t)
	write := func(rel, content string) {
		t.Helper()
		full := filepath.Join(filepath.Dir(l.CgroupRoot), rel)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("proc/4243/stat", procfs.FormatStat(4243, "CPU 1/KVM", 120_000, 0))
	// A scope outside libvirt's naming could be listed but never read.
	write("cgroup/bare.scope/vcpu0/cpu.stat", "usage_usec 1\n")
	l.Freqs["bare"] = 1000

	monitor := func(want int) {
		t.Helper()
		vms, err := l.ListVMs()
		if err != nil {
			t.Fatal(err)
		}
		live := 0
		for _, vm := range vms {
			if vm.Name != "guest1" {
				t.Fatalf("listed %q, want only guest1", vm.Name)
			}
			for j := 0; j < vm.VCPUs; j++ {
				tid, err := l.ThreadID(vm.Name, j)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := l.LastCPU(tid); err != nil {
					t.Fatal(err)
				}
				live++
			}
		}
		if live != want || len(l.procs) != want || len(l.vcpus) != want {
			t.Fatalf("%d live vCPUs, %d proc handles, %d vCPU entries, want %d each",
				live, len(l.procs), len(l.vcpus), want)
		}
	}
	monitor(2)

	write("proc/5000/stat", procfs.FormatStat(5000, "CPU 0/KVM", 10, 1))
	write("cgroup/machine-qemu-guest1.scope/vcpu0/cgroup.threads", "5000\n")
	monitor(2)
	if _, stale := l.procs[4242]; stale {
		t.Fatal("the replaced thread's stat handle is still cached")
	}

	scope := filepath.Join(l.CgroupRoot, "machine-qemu-guest1.scope")
	if err := os.RemoveAll(filepath.Join(scope, "vcpu1")); err != nil {
		t.Fatal(err)
	}
	monitor(1)
	if err := os.RemoveAll(scope); err != nil {
		t.Fatal(err)
	}
	monitor(0)
}

// TestLinuxBatchSetMax: the batched write lands every entry through the
// cached descriptors, records per-entry outcomes, and — once the
// descriptors are warm — allocates nothing per call.
func TestLinuxBatchSetMax(t *testing.T) {
	l := fixtureHost(t)
	quotas := []VCPUQuota{
		{VCPU: 0, QuotaUs: 25_000, PeriodUs: 100_000},
		{VCPU: 1, QuotaUs: 30_000, PeriodUs: 100_000},
	}
	if err := l.BatchSetMax("guest1", quotas); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"25000 100000", "30000 100000"} {
		if quotas[i].Err != nil {
			t.Fatalf("entry %d: %v", i, quotas[i].Err)
		}
		raw, err := os.ReadFile(filepath.Join(l.CgroupRoot,
			"machine-qemu-guest1.scope/vcpu"+strconv.Itoa(i)+"/cpu.max"))
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != want {
			t.Fatalf("vcpu%d cpu.max = %q, want %q", i, raw, want)
		}
	}
	if raceflag.Enabled {
		return
	}
	allocs := testing.AllocsPerRun(20, func() {
		quotas[0].QuotaUs++
		quotas[1].QuotaUs++
		if err := l.BatchSetMax("guest1", quotas); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm BatchSetMax allocates %.1f/op, want 0", allocs)
	}
}

// TestLinuxBatchSetMaxPartialFailure: a vanished vCPU cgroup fails its
// own entry only — the batch still attempts (and lands) every other
// entry, the per-entry Err pinpoints the victim, and the summary error
// is non-nil.
func TestLinuxBatchSetMaxPartialFailure(t *testing.T) {
	l := fixtureHost(t)
	if _, err := l.UsageUs("guest1", 1); err != nil {
		t.Fatal(err) // warm the handles so the stale-descriptor path runs
	}
	if err := os.RemoveAll(filepath.Join(l.CgroupRoot, "machine-qemu-guest1.scope/vcpu1")); err != nil {
		t.Fatal(err)
	}
	l.pruneDeparted(nil) // drop the cached descriptors, as ListVMs would

	quotas := []VCPUQuota{
		{VCPU: 0, QuotaUs: 40_000, PeriodUs: 100_000},
		{VCPU: 1, QuotaUs: 45_000, PeriodUs: 100_000},
	}
	err := l.BatchSetMax("guest1", quotas)
	if err == nil {
		t.Fatal("summary error nil with a failed entry")
	}
	if quotas[0].Err != nil {
		t.Fatalf("healthy entry failed: %v", quotas[0].Err)
	}
	if quotas[1].Err == nil {
		t.Fatal("vanished vcpu1 entry reported success")
	}
	raw, rerr := os.ReadFile(filepath.Join(l.CgroupRoot, "machine-qemu-guest1.scope/vcpu0/cpu.max"))
	if rerr != nil {
		t.Fatal(rerr)
	}
	if string(raw) != "40000 100000" {
		t.Fatalf("vcpu0 cpu.max = %q after partial failure, want \"40000 100000\"", raw)
	}
}
