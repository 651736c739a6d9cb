package platform

import (
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"syscall"
	"testing"
	"time"

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
// its vCPU runs on that thread. A replaced thread (VM restart under the
// same cgroup) and a departure both bring len(l.procs) back to the live
// vCPU count.
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

	// The kernel replaces vcpu0's thread: cgroup.threads names 5000 and
	// 4242 is gone from /proc. A descriptor on /proc/<tid>/stat is bound to
	// the task and reads ESRCH from then on; one on a regular file outlives
	// the unlink, so the test closes it to the same effect.
	write("proc/5000/stat", procfs.FormatStat(5000, "CPU 0/KVM", 10, 1))
	write("cgroup/machine-qemu-guest1.scope/vcpu0/cgroup.threads", "5000\n")
	if err := os.RemoveAll(filepath.Join(l.ProcRoot, "4242")); err != nil {
		t.Fatal(err)
	}
	l.procs[4242].f.Close()
	if tid, err := l.ThreadID("guest1", 0); err != nil || tid != 4242 {
		t.Fatalf("ThreadID = %d, %v before any read failed, want the remembered 4242", tid, err)
	}
	if _, err := l.LastCPU(4242); err == nil {
		t.Fatal("LastCPU of the dead thread succeeded")
	}
	if _, cached := l.procs[4242]; cached {
		t.Fatal("the dead thread's stat handle is still cached")
	}
	if tid, err := l.ThreadID("guest1", 0); err != nil || tid != 5000 {
		t.Fatalf("ThreadID = %d, %v after the failed LastCPU, want 5000 re-read from cgroup.threads", tid, err)
	}
	monitor(2)

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

// TestLinuxUsageFailureForgetsTID: a cpu.stat that stops answering means
// the cgroup was rebuilt, so the thread in it is looked up again instead
// of costing a second degraded period on the old tid's /proc file.
func TestLinuxUsageFailureForgetsTID(t *testing.T) {
	l := fixtureHost(t)
	if _, err := l.UsageUs("guest1", 0); err != nil {
		t.Fatal(err)
	}
	if tid, err := l.ThreadID("guest1", 0); err != nil || tid != 4242 {
		t.Fatalf("ThreadID = %d, %v", tid, err)
	}
	threads := filepath.Join(l.CgroupRoot, "machine-qemu-guest1.scope/vcpu0/cgroup.threads")
	if err := os.WriteFile(threads, []byte("5000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	l.vcpus[VCPURef{"guest1", 0}].stat.f.Close() // kernfs: ENODEV once the cgroup is gone
	if _, err := l.UsageUs("guest1", 0); err == nil {
		t.Fatal("read through a closed descriptor succeeded")
	}
	if len(l.procs) != 0 {
		t.Fatalf("%d proc handles cached after the vCPU's cpu.stat failed, want 0", len(l.procs))
	}
	if tid, err := l.ThreadID("guest1", 0); err != nil || tid != 5000 {
		t.Fatalf("ThreadID = %d, %v, want 5000 re-read", tid, err)
	}
}

// cacheTree is a cgroup and /proc tree the listing-cache tests add VMs to
// and remove them from.
type cacheTree struct {
	t       testing.TB
	l       *Linux
	nextTID int
}

// newTree is a two-core host with no VM on it.
func newTree(t testing.TB) *cacheTree {
	root := t.TempDir()
	tr := &cacheTree{t: t, nextTID: 100, l: &Linux{
		NodeName:   "tree",
		CgroupRoot: filepath.Join(root, "cgroup"),
		ProcRoot:   filepath.Join(root, "proc"),
		SysCPURoot: filepath.Join(root, "sys/cpu"),
		Cores:      2,
		MaxFreqMHz: 2400,
		Freqs:      map[string]int64{},
	}}
	tr.write("cgroup/other.mount/cpu.stat", "usage_usec 0\n")
	tr.write("sys/cpu/cpu0/cpufreq/scaling_cur_freq", "2200000\n")
	tr.write("sys/cpu/cpu1/cpufreq/scaling_cur_freq", "1200000\n")
	t.Cleanup(func() { closeWatch(tr.l) })
	return tr
}

// closeWatch releases a backend's inotify descriptor at once instead of
// at its finalizer: the test binary may build more backends than a user
// may hold inotify instances (128 by default) before a collection runs.
func closeWatch(l *Linux) {
	if l.watch != nil {
		l.watch.close()
	}
}

// armedWatch returns the backend's watch after a listing, skipping the
// test on a host that gives no inotify descriptor: there the backend lists
// on every call, and what the test pins does not exist.
func armedWatch(t *testing.T, l *Linux) *watch {
	t.Helper()
	if l.watch == nil || l.watch.fd < 0 {
		t.Skip("no inotify watch on this host")
	}
	return l.watch
}

// drain reads every event the watch holds, as if the kernel had lost
// them: the next ListVMs believes its last scan.
func drain(t *testing.T, l *Linux) {
	t.Helper()
	w := armedWatch(t, l)
	var buf [4096]byte
	for {
		if _, err := syscall.Read(w.fd, buf[:]); err == syscall.EAGAIN {
			return
		} else if err != nil && err != syscall.EINTR {
			t.Fatal(err)
		}
	}
}

func newCacheTree(t *testing.T) *cacheTree {
	tr := newTree(t)
	tr.l.Freqs = map[string]int64{"a": 1800, "b": 1200, "c": 600}
	tr.addVM("a", 2)
	tr.addVM("b", 1)
	tr.addVM("x", 1) // no template: scanned, not listed
	return tr
}

// path resolves a name relative to the tree's root ("cgroup/…", "proc/…").
func (tr *cacheTree) path(rel string) string {
	return filepath.Join(filepath.Dir(tr.l.CgroupRoot), rel)
}

func (tr *cacheTree) write(rel, content string) {
	tr.t.Helper()
	full := tr.path(rel)
	if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
		tr.t.Fatal(err)
	}
	if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
		tr.t.Fatal(err)
	}
}

func (tr *cacheTree) remove(rel string) {
	tr.t.Helper()
	if err := os.RemoveAll(tr.path(rel)); err != nil {
		tr.t.Fatal(err)
	}
}

func scopeOf(vm string) string { return "cgroup/machine-qemu-" + vm + ".scope" }

func (tr *cacheTree) addVCPU(vm string, j int) {
	tr.t.Helper()
	dir := scopeOf(vm) + "/vcpu" + strconv.Itoa(j) + "/"
	tr.write(dir+"cpu.stat", "usage_usec 1\n")
	tr.write(dir+"cpu.max", "max 100000\n")
	tr.write(dir+"cpu.max.burst", "0\n")
	tr.write(dir+"cgroup.threads", strconv.Itoa(tr.nextTID)+"\n")
	tr.write("proc/"+strconv.Itoa(tr.nextTID)+"/stat", procfs.FormatStat(tr.nextTID, "CPU/KVM", 10, j%2))
	tr.nextTID++
}

func (tr *cacheTree) addVM(vm string, vcpus int) {
	tr.t.Helper()
	tr.write(scopeOf(vm)+"/emulator/cpu.stat", "usage_usec 0\n")
	for j := 0; j < vcpus; j++ {
		tr.addVCPU(vm, j)
	}
}

func (tr *cacheTree) exists(rel string) bool {
	_, err := os.Stat(tr.path(rel))
	return err == nil
}

// mtime returns a directory's modification time; setMtime puts one back,
// which makes a regular filesystem look like kernfs, where mkdir and rmdir
// leave the parent's st_mtim alone.
func (tr *cacheTree) mtime(rel string) time.Time {
	tr.t.Helper()
	fi, err := os.Stat(tr.path(rel))
	if err != nil {
		tr.t.Fatal(err)
	}
	return fi.ModTime()
}

func (tr *cacheTree) setMtime(rel string, at time.Time) {
	tr.t.Helper()
	if err := os.Chtimes(tr.path(rel), time.Time{}, at); err != nil {
		tr.t.Fatal(err)
	}
}

// list calls ListVMs and checks the result and the number of vCPUs (and
// threads) still cached.
func (tr *cacheTree) list(when string, want []VMInfo, cached int) {
	tr.t.Helper()
	got, err := tr.l.ListVMs()
	if err != nil {
		tr.t.Fatalf("%s: %v", when, err)
	}
	if !slices.Equal(got, want) {
		tr.t.Fatalf("%s: listed %+v, want %+v", when, got, want)
	}
	if len(tr.l.vcpus) != cached || len(tr.l.procs) != cached {
		tr.t.Fatalf("%s: %d vCPU entries and %d proc handles cached, want %d each",
			when, len(tr.l.vcpus), len(tr.l.procs), cached)
	}
}

// read does a monitor pass's reads over vms, opening every descriptor.
func (tr *cacheTree) read(vms []VMInfo) {
	tr.t.Helper()
	for _, vm := range vms {
		for j := 0; j < vm.VCPUs; j++ {
			if _, err := tr.l.UsageUs(vm.Name, j); err != nil {
				tr.t.Fatal(err)
			}
			tid, err := tr.l.ThreadID(vm.Name, j)
			if err != nil {
				tr.t.Fatal(err)
			}
			if _, err := tr.l.LastCPU(tid); err != nil {
				tr.t.Fatal(err)
			}
		}
	}
}

// TestLinuxListingCache: every event that changes what ListVMs must answer
// is seen on the next call, and the descriptors of what left are released
// on that call. Each row starts from VMs a (2 vCPUs) and b (1), listed and
// read once.
func TestLinuxListingCache(t *testing.T) {
	a2, b1 := VMInfo{"a", 2, 1800}, VMInfo{"b", 1, 1200}
	start := []VMInfo{a2, b1}
	rows := []struct {
		name   string
		change func(tr *cacheTree)
		want   []VMInfo
		kept   int // vCPUs of start still cached after the listing
	}{
		{"arrival", func(tr *cacheTree) { tr.addVM("c", 1) },
			[]VMInfo{a2, b1, {"c", 1, 600}}, 3},
		{"departure", func(tr *cacheTree) { tr.remove(scopeOf("a")) },
			[]VMInfo{b1}, 1},
		// Root st_nlink ends where it began; the root's watch reports both.
		{"departure and arrival, same count", func(tr *cacheTree) {
			tr.remove(scopeOf("b"))
			tr.addVM("c", 1)
		}, []VMInfo{a2, {"c", 1, 600}}, 2},
		{"sibling departure and arrival", func(tr *cacheTree) {
			tr.remove("cgroup/other.mount")
			tr.addVM("c", 1)
		}, []VMInfo{a2, b1, {"c", 1, 600}}, 3},
		{"vCPU grow", func(tr *cacheTree) { tr.addVCPU("a", 2) },
			[]VMInfo{{"a", 3, 1800}, b1}, 3},
		{"vCPU shrink", func(tr *cacheTree) { tr.remove(scopeOf("a") + "/vcpu1") },
			[]VMInfo{{"a", 1, 1800}, b1}, 2},
		// The scope's link count stays: one directory out, one in.
		{"emulator replaced by a vCPU", func(tr *cacheTree) {
			tr.remove(scopeOf("a") + "/emulator")
			tr.addVCPU("a", 2)
		}, []VMInfo{{"a", 3, 1800}, b1}, 3},
		// Two vCPUs and no emulator: as many links as before.
		{"scope recreated with the same link count", func(tr *cacheTree) {
			tr.remove(scopeOf("b"))
			tr.addVCPU("b", 0)
			tr.addVCPU("b", 1)
		}, []VMInfo{a2, {"b", 2, 1200}}, 3},
		{"scope recreated with another vCPU count", func(tr *cacheTree) {
			tr.remove(scopeOf("b"))
			tr.addVM("b", 2)
		}, []VMInfo{a2, {"b", 2, 1200}}, 3},
		{"scope recreated smaller", func(tr *cacheTree) {
			tr.remove(scopeOf("a"))
			tr.addVM("a", 1)
		}, []VMInfo{{"a", 1, 1800}, b1}, 2},
		{"template added", func(tr *cacheTree) { tr.l.Freqs["x"] = 900 },
			[]VMInfo{a2, b1, {"x", 1, 900}}, 3},
		{"template removed", func(tr *cacheTree) { delete(tr.l.Freqs, "a") },
			[]VMInfo{b1}, 1},
		{"template changed", func(tr *cacheTree) { tr.l.Freqs["b"] = 2000 },
			[]VMInfo{a2, {"b", 1, 2000}}, 3},
		// The benchmark's close(): no template, one call, nothing held.
		{"templates set to nil", func(tr *cacheTree) { tr.l.Freqs = nil },
			nil, 0},
	}
	// Every row runs twice: as the filesystem has it, and with the mtime of
	// the root and of both scopes put back after the change — kernfs, where
	// mkdir and rmdir leave the parent's st_mtim alone.
	dirs := []string{"cgroup", scopeOf("a"), scopeOf("b")}
	for _, kernfs := range []bool{false, true} {
		for _, row := range rows {
			name := row.name
			if kernfs {
				name += ", mtime frozen"
			}
			t.Run(name, func(t *testing.T) {
				tr := newCacheTree(t)
				tr.list("first call", start, 0)
				tr.read(start)
				tr.list("unchanged", start, 3)

				var at [3]time.Time
				for i, dir := range dirs {
					at[i] = tr.mtime(dir)
				}
				row.change(tr)
				for i, dir := range dirs {
					if kernfs && tr.exists(dir) {
						tr.setMtime(dir, at[i])
					}
				}
				tr.list("after the change", row.want, row.kept)
				tr.read(row.want)
				total := 0
				for _, vm := range row.want {
					total += vm.VCPUs
				}
				tr.list("after the change, read", row.want, total)
			})
		}
	}
}

// TestLinuxFailedDescriptorForcesRescan: a change the watch lost — here a
// vcpu2 that took the place of the emulator directory, its events drained
// by the test — is believed until any file the backend opens fails; the
// call after that scans.
func TestLinuxFailedDescriptorForcesRescan(t *testing.T) {
	tr := newCacheTree(t)
	start := []VMInfo{{"a", 2, 1800}, {"b", 1, 1200}}
	tr.list("first call", start, 0)
	tr.read(start)

	tr.remove(scopeOf("a") + "/emulator")
	tr.addVCPU("a", 2)
	drain(t, tr.l)
	tr.list("lost change", start, 3)

	// cgroup.threads is opened for one read, not kept, and still counts.
	if _, err := tr.l.ThreadID("gone", 0); err == nil {
		t.Fatal("thread lookup in a VM that does not exist succeeded")
	}
	// Each failed open leaves an entry for gone/vcpu0, which the scan it
	// forces prunes — also when the scan finds what the last one found.
	now := []VMInfo{{"a", 3, 1800}, {"b", 1, 1200}}
	tr.list("after a failed cgroup.threads read", now, 3)
	if err := tr.l.SetMax("gone", 0, 50_000, 100_000); err == nil {
		t.Fatal("write to a VM that does not exist succeeded")
	}
	tr.list("after a failed write", now, 3)
}

// coreHandles counts the cores whose scaling_cur_freq handle was built.
func coreHandles(l *Linux) int {
	n := 0
	for i := range l.cores {
		if l.cores[i].path != "" {
			n++
		}
	}
	return n
}

// TestLinuxCoreOutOfRangeLeavesNoState: a core index the node does not
// have — it is parsed from /proc, so it is outside input — is refused
// before a handle is built. It used to cost one core handle per distinct
// value, never pruned, and its failed open had the next ListVMs scan the
// tree again; here a change whose events the test drained stays believed,
// which it would not after a scan.
func TestLinuxCoreOutOfRangeLeavesNoState(t *testing.T) {
	tr := newCacheTree(t)
	start := []VMInfo{{"a", 2, 1800}, {"b", 1, 1200}}
	tr.list("first call", start, 0)
	if mhz, err := tr.l.CoreFreqMHz(1); err != nil || mhz != 1200 {
		t.Fatalf("CoreFreqMHz(1) = %d, %v", mhz, err)
	}
	tr.remove(scopeOf("a") + "/emulator")
	tr.addVCPU("a", 2)
	drain(t, tr.l)

	for _, core := range []int{-1, tr.l.Cores, tr.l.Cores + 1} {
		if mhz, err := tr.l.CoreFreqMHz(core); err == nil {
			t.Fatalf("CoreFreqMHz(%d) = %d on a %d-core node, want an error", core, mhz, tr.l.Cores)
		}
	}
	if n := coreHandles(tr.l); n != 1 || !tr.l.scanOK {
		t.Fatalf("%d core handles, scanOK %v after three refused cores, want 1 and true", n, tr.l.scanOK)
	}
	tr.list("after the refused cores", start, 0)
}

// TestLinuxCoreFreqOncePerListing: CoreFreqMHz reads each core once per
// ListVMs call. Kill list, each verified red: answer every call from the
// file (no memo); ListVMs leaves the epoch alone; stamp the epoch before
// the read, so a failed read is remembered.
func TestLinuxCoreFreqOncePerListing(t *testing.T) {
	tr := newTree(t)
	freq := func(core int, want int64) {
		t.Helper()
		if mhz, err := tr.l.CoreFreqMHz(core); err != nil || mhz != want {
			t.Fatalf("CoreFreqMHz(%d) = %d, %v, want %d", core, mhz, err, want)
		}
	}
	tr.list("first call", nil, 0)
	freq(1, 1200)
	tr.write("sys/cpu/cpu1/cpufreq/scaling_cur_freq", "1800000\n")
	freq(1, 1200) // within the period: the reading taken since ListVMs
	tr.list("next period", nil, 0)
	freq(1, 1800)

	// A read that fails, on open or on parse, is made again by the next
	// call of the same period.
	tr.remove("sys/cpu/cpu0/cpufreq/scaling_cur_freq")
	if mhz, err := tr.l.CoreFreqMHz(0); err == nil {
		t.Fatalf("CoreFreqMHz(0) = %d with its file gone", mhz)
	}
	tr.write("sys/cpu/cpu0/cpufreq/scaling_cur_freq", "garbage\n")
	if mhz, err := tr.l.CoreFreqMHz(0); err == nil {
		t.Fatalf("CoreFreqMHz(0) = %d from an unparsable file", mhz)
	}
	tr.write("sys/cpu/cpu0/cpufreq/scaling_cur_freq", "2200000\n")
	freq(0, 2200)
}

// TestLinuxWriteLength: a quota write leaves exactly its payload in a
// regular file, though it truncates only on a fresh descriptor or after a
// longer payload. Kill list, each verified red: never truncate; keep the
// remembered length when the descriptor closes.
func TestLinuxWriteLength(t *testing.T) {
	l := fixtureHost(t)
	path := filepath.Join(l.CgroupRoot, "machine-qemu-guest1.scope/vcpu0/cpu.max")
	holds := func(want string) {
		t.Helper()
		if raw, err := os.ReadFile(path); err != nil || string(raw) != want {
			t.Fatalf("cpu.max = %q, %v, want %q", raw, err, want)
		}
	}
	set := func(quota, period int64, want string) {
		t.Helper()
		if err := l.SetMax("guest1", 0, quota, period); err != nil {
			t.Fatal(err)
		}
		holds(want)
	}
	set(123456, 1000000, "123456 1000000")
	set(5, 100000, "5 100000")
	if err := l.ClearMax("guest1", 0); err != nil {
		t.Fatal(err)
	}
	holds("max")
	set(123456, 1000000, "123456 1000000")

	// The descriptor breaks under the handle: the write fails and drops
	// it. The file is then rewritten longer behind the backend's back, so
	// the next write, on a fresh descriptor, must truncate again though
	// its payload is no shorter than the last one.
	h := &l.vcpu("guest1", 0).max
	h.f.Close()
	if err := l.SetMax("guest1", 0, 7, 100000); err == nil {
		t.Fatal("write through a closed descriptor succeeded")
	}
	if h.f != nil {
		t.Fatal("a failed write kept its descriptor")
	}
	if err := os.WriteFile(path, []byte("123456789 10000000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	set(1234567, 1000000, "1234567 1000000")
}

// TestLinuxDepartedScopeIsSkipped: a scope removed between the root's
// listing and its own scan has departed; it must not fail the enumeration
// (and with it the Step of every other VM on the node).
func TestLinuxDepartedScopeIsSkipped(t *testing.T) {
	tr := newCacheTree(t)
	dir := tr.path(scopeOf("a"))
	w := newWatch()
	defer w.close()
	w.rearm()
	if s, gone, err := w.scanDir(dir, "a"); err != nil || gone || s.vcpus != 2 || s.vm != "a" {
		t.Fatalf("live scope: %+v, gone=%v, %v", s, gone, err)
	}
	if _, gone, err := w.scanDir(tr.path(scopeOf("left")), "left"); err != nil || !gone {
		t.Fatalf("vanished scope: gone=%v, %v; want gone and no error", gone, err)
	}
	file := filepath.Join(dir, "vcpu0/cpu.stat") // a name that is no directory any more
	if _, gone, err := w.scanDir(file, "a"); err != nil || !gone {
		t.Fatalf("scope replaced by a file: gone=%v, %v; want gone and no error", gone, err)
	}
	if _, _, err := w.scanDir(dir+"\x00", "a"); err == nil {
		t.Fatal("an error that is not a departure was swallowed")
	}
}

// TestLinuxSteadyStateAllocs: a period in which nothing changed costs the
// result slice in ListVMs, and nothing in ThreadID — no directory is
// listed or stat'ed, no cgroup.threads parsed.
func TestLinuxSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	tr := newCacheTree(t)
	vms, err := tr.l.ListVMs()
	if err != nil {
		t.Fatal(err)
	}
	armedWatch(t, tr.l)
	tr.read(vms)
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := tr.l.ListVMs(); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Fatalf("unchanged ListVMs allocates %.1f/op, want at most the result", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if tid, err := tr.l.ThreadID("a", 1); err != nil || tid != 101 {
			t.Fatalf("ThreadID = %d, %v", tid, err)
		}
	}); allocs != 0 {
		t.Fatalf("warm ThreadID allocates %.1f/op, want 0", allocs)
	}
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
