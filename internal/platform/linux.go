package platform

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"vfreq/internal/cgroupfs"
	"vfreq/internal/procfs"
	"vfreq/internal/sysfs"
)

// Linux reads a real host's cgroup v2, /proc and /sys trees. It discovers
// KVM VMs under machine.slice the way libvirt lays them out
// (machine-qemu-*.scope with per-vCPU sub-cgroups).
//
// Template virtual frequencies are not stored in the kernel; they are
// supplied via Freqs, keyed by VM name, playing the role of the cloud
// manager's template database.
//
// The per-period paths (UsageUs, ThreadID, LastCPU, CoreFreqMHz, SetMax,
// SetBurst) keep their files open and pread/pwrite at offset zero into
// per-file scratch buffers, so a steady-state control Step performs no
// path construction, no open/close churn and no heap allocation. A
// failed read or write closes and drops the descriptor, and the next
// call reopens the path — which is how cgroup recreation on VM restart
// is picked up.
type Linux struct {
	NodeName    string
	CgroupRoot  string // e.g. /sys/fs/cgroup/machine.slice
	ProcRoot    string // e.g. /proc
	SysCPURoot  string // e.g. /sys/devices/system/cpu
	SysNUMARoot string // e.g. /sys/devices/system/node
	MaxFreqMHz  int64
	Cores       int
	Freqs       map[string]int64 // VM name → template frequency (MHz)

	// Lazily-built handle caches.
	vcpus map[vcpuRef]*vcpuFiles
	procs map[int]*handle
	cores map[int]*handle

	// coreNodes caches the NUMA topology (core → node), discovered once
	// like the cgroup paths: the placement of logical CPUs never changes
	// while the controller runs.
	coreNodes []int
}

type vcpuRef struct {
	vm   string
	vcpu int
}

// vcpuFiles caches one vCPU cgroup's directory path and control files.
type vcpuFiles struct {
	dir     string
	stat    handle // cpu.stat (read)
	threads handle // cgroup.threads (read)
	max     handle // cpu.max (write)
	burst   handle // cpu.max.burst (write)
	// tid is the thread ThreadID last returned (0: none yet); its
	// /proc/<tid>/stat handle in Linux.procs lives and dies with it.
	tid int
}

// handle is one kept-open file plus its scratch buffer. Reads pread at
// offset zero, so there is no seek position to maintain.
type handle struct {
	path string
	f    *os.File
	buf  [512]byte
}

// read returns the file's current contents, pread into the handle's
// scratch and valid until the handle's next read or write. A failed read
// drops the descriptor so the next call reopens the path.
func (h *handle) read() ([]byte, error) {
	if h.f == nil {
		f, err := os.Open(h.path)
		if err != nil {
			return nil, err
		}
		h.f = f
	}
	n, err := h.f.ReadAt(h.buf[:], 0)
	if err != nil && err != io.EOF {
		h.f.Close()
		h.f = nil
		return nil, err
	}
	return h.buf[:n], nil
}

// write pwrites the payload at offset zero. Control files treat every
// write as a full transaction; regular files (tests) would keep stale
// trailing bytes, so the length is truncated — kernfs rejects the
// truncate, which is ignored.
func (h *handle) write(payload []byte) error {
	if h.f == nil {
		f, err := os.OpenFile(h.path, os.O_WRONLY, 0)
		if err != nil {
			return err
		}
		h.f = f
	}
	if _, err := h.f.WriteAt(payload, 0); err != nil {
		h.f.Close()
		h.f = nil
		return err
	}
	_ = h.f.Truncate(int64(len(payload)))
	return nil
}

func (h *handle) close() {
	if h.f != nil {
		h.f.Close()
		h.f = nil
	}
}

// vcpu returns (building on first use) the cached files of one vCPU.
func (l *Linux) vcpu(vm string, vcpu int) *vcpuFiles {
	if l.vcpus == nil {
		l.vcpus = map[vcpuRef]*vcpuFiles{}
	}
	ref := vcpuRef{vm: vm, vcpu: vcpu}
	vf, ok := l.vcpus[ref]
	if !ok {
		dir := filepath.Join(l.CgroupRoot, "machine-qemu-"+vm+".scope", "vcpu"+strconv.Itoa(vcpu))
		vf = &vcpuFiles{dir: dir}
		vf.stat.path = filepath.Join(dir, "cpu.stat")
		vf.threads.path = filepath.Join(dir, "cgroup.threads")
		vf.max.path = filepath.Join(dir, "cpu.max")
		vf.burst.path = filepath.Join(dir, "cpu.max.burst")
		l.vcpus[ref] = vf
	}
	return vf
}

// proc returns the cached /proc/<tid>/stat handle.
func (l *Linux) proc(tid int) *handle {
	if l.procs == nil {
		l.procs = map[int]*handle{}
	}
	h, ok := l.procs[tid]
	if !ok {
		h = &handle{path: filepath.Join(l.ProcRoot, strconv.Itoa(tid), "stat")}
		l.procs[tid] = h
	}
	return h
}

// dropProc closes and forgets a thread's handle: on a failed read (the
// thread is likely gone), when its vCPU moves to another thread, and
// when the vCPU departs.
func (l *Linux) dropProc(tid int) {
	if h, ok := l.procs[tid]; ok {
		h.close()
		delete(l.procs, tid)
	}
}

// core returns the cached scaling_cur_freq handle of one core.
func (l *Linux) core(core int) *handle {
	if l.cores == nil {
		l.cores = map[int]*handle{}
	}
	h, ok := l.cores[core]
	if !ok {
		h = &handle{path: sysfs.CurFreqPath(l.SysCPURoot, core)}
		l.cores[core] = h
	}
	return h
}

// pruneDeparted closes and forgets the cached files of VMs (or trailing
// vCPUs after a shrink) no longer present on the host.
func (l *Linux) pruneDeparted(live []VMInfo) {
	for ref, vf := range l.vcpus {
		found := false
		for i := range live {
			if live[i].Name == ref.vm && ref.vcpu < live[i].VCPUs {
				found = true
				break
			}
		}
		if !found {
			vf.stat.close()
			vf.threads.close()
			vf.max.close()
			vf.burst.close()
			l.dropProc(vf.tid)
			delete(l.vcpus, ref)
		}
	}
}

// CoreNodes implements Topology: core → NUMA node from the node<N>/
// cpulist files. The scan runs once and is cached. A missing node tree,
// one naming no node, or an unreadable or malformed cpulist is an error:
// the result is the whole map or nothing, never a partly filled one.
func (l *Linux) CoreNodes() ([]int, error) {
	if l.coreNodes != nil {
		return l.coreNodes, nil
	}
	root := l.SysNUMARoot
	if root == "" {
		root = sysfs.NodeMount
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("platform: reading NUMA tree: %w", err)
	}
	nodes := make([]int, l.Cores)
	found := false
	for _, e := range entries {
		// The kernel keeps plain files ("online", "possible", ...) beside
		// the node<N> directories.
		num, ok := strings.CutPrefix(e.Name(), "node")
		if !ok {
			continue
		}
		id, err := strconv.Atoi(num)
		if err != nil || id < 0 {
			continue
		}
		path := filepath.Join(root, e.Name(), "cpulist")
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("platform: reading NUMA tree: %w", err)
		}
		cpus, err := sysfs.ParseCPUList(string(b))
		if err != nil {
			return nil, fmt.Errorf("platform: %s: %w", path, err)
		}
		found = true
		for _, c := range cpus {
			if c >= 0 && c < len(nodes) {
				nodes[c] = id
			}
		}
	}
	if !found {
		return nil, fmt.Errorf("platform: no node<N>/cpulist under %s", root)
	}
	l.coreNodes = nodes
	return nodes, nil
}

// NewLinux builds a backend for the standard mount points. It fails if
// the cgroup v2 hierarchy is not present.
func NewLinux(freqs map[string]int64) (*Linux, error) {
	l := &Linux{
		NodeName:    "localhost",
		CgroupRoot:  "/sys/fs/cgroup/machine.slice",
		ProcRoot:    "/proc",
		SysCPURoot:  "/sys/devices/system/cpu",
		SysNUMARoot: sysfs.NodeMount,
		Freqs:       freqs,
	}
	online, err := os.ReadFile(filepath.Join(l.SysCPURoot, "online"))
	if err != nil {
		return nil, fmt.Errorf("platform: no cpu sysfs: %w", err)
	}
	l.Cores, err = sysfs.ParseOnline(string(online))
	if err != nil {
		return nil, err
	}
	// F_MAX: use cpu0's scaling_max_freq; fall back to cpuinfo_max_freq.
	for _, f := range []string{"cpu0/cpufreq/scaling_max_freq", "cpu0/cpufreq/cpuinfo_max_freq"} {
		if b, err := os.ReadFile(filepath.Join(l.SysCPURoot, f)); err == nil {
			if khz, err := sysfs.ParseKHzBytes(b); err == nil {
				l.MaxFreqMHz = khz / 1000
				break
			}
		}
	}
	if l.MaxFreqMHz == 0 {
		return nil, fmt.Errorf("platform: cannot determine F_MAX from cpufreq")
	}
	if _, err := os.Stat(l.CgroupRoot); err != nil {
		return nil, fmt.Errorf("platform: no machine.slice cgroup: %w", err)
	}
	return l, nil
}

// Node implements Host.
func (l *Linux) Node() NodeInfo {
	return NodeInfo{Name: l.NodeName, Cores: l.Cores, MaxFreqMHz: l.MaxFreqMHz}
}

// ListVMs implements Host.
func (l *Linux) ListVMs() ([]VMInfo, error) {
	entries, err := os.ReadDir(l.CgroupRoot)
	if err != nil {
		return nil, err
	}
	var out []VMInfo
	for _, e := range entries {
		// Only libvirt's machine-qemu-<name>.scope: vcpu() rebuilds the
		// directory from the name, so a scope without the prefix could
		// be listed but never read.
		name, prefixed := strings.CutPrefix(e.Name(), "machine-qemu-")
		name, suffixed := strings.CutSuffix(name, ".scope")
		if !prefixed || !suffixed || !e.IsDir() {
			continue
		}
		// Count vcpuN sub-cgroups.
		subs, err := os.ReadDir(filepath.Join(l.CgroupRoot, e.Name()))
		if err != nil {
			return nil, err
		}
		vcpus := 0
		for _, s := range subs {
			if s.IsDir() && strings.HasPrefix(s.Name(), "vcpu") {
				vcpus++
			}
		}
		if vcpus == 0 {
			continue
		}
		freq, ok := l.Freqs[name]
		if !ok {
			continue // no template registered: not under our control
		}
		out = append(out, VMInfo{Name: name, VCPUs: vcpus, FreqMHz: freq})
	}
	l.pruneDeparted(out)
	return out, nil
}

// UsageUs implements Host.
func (l *Linux) UsageUs(vm string, vcpu int) (int64, error) {
	b, err := l.vcpu(vm, vcpu).stat.read()
	if err != nil {
		return 0, err
	}
	return cgroupfs.ParseCPUStatBytes(b, "usage_usec")
}

// SetMax implements Host.
func (l *Linux) SetMax(vm string, vcpu int, quotaUs, periodUs int64) error {
	h := &l.vcpu(vm, vcpu).max
	b := strconv.AppendInt(h.buf[:0], quotaUs, 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, periodUs, 10)
	return h.write(b)
}

// BatchSetMax implements BatchQuotaWriter through the serial adapter:
// SetMax already writes through the cached descriptor, and with one
// goroutine per host there is no lock for a batch to amortise. The method
// exists only because the benchmark's host decorator requires the
// capability of the hosts it wraps.
func (l *Linux) BatchSetMax(vm string, quotas []VCPUQuota) error {
	return serialBatch{l}.BatchSetMax(vm, quotas)
}

// ReadMax implements QuotaReader. It is an inspection path, not part of
// the control loop, so it reads through the path like any tool would.
func (l *Linux) ReadMax(vm string, vcpu int) (int64, int64, error) {
	b, err := os.ReadFile(l.vcpu(vm, vcpu).max.path)
	if err != nil {
		return 0, 0, err
	}
	quota, period, err := cgroupfs.ParseCPUMax(string(b), 100_000)
	if err != nil {
		return 0, 0, err
	}
	if quota < 0 {
		quota = NoQuota
	}
	return quota, period, nil
}

var clearMaxPayload = []byte("max")

// ClearMax implements Host.
func (l *Linux) ClearMax(vm string, vcpu int) error {
	return l.vcpu(vm, vcpu).max.write(clearMaxPayload)
}

// SetBurst implements Host.
func (l *Linux) SetBurst(vm string, vcpu int, burstUs int64) error {
	h := &l.vcpu(vm, vcpu).burst
	return h.write(strconv.AppendInt(h.buf[:0], burstUs, 10))
}

// ThreadID implements Host.
func (l *Linux) ThreadID(vm string, vcpu int) (int, error) {
	vf := l.vcpu(vm, vcpu)
	b, err := vf.threads.read()
	if err != nil {
		return 0, err
	}
	tid, n, err := cgroupfs.ParseSingleTID(b)
	if err != nil {
		return 0, err
	}
	if n != 1 {
		return 0, fmt.Errorf("platform: vCPU cgroup holds %d threads, want 1", n)
	}
	if tid != vf.tid {
		// The VM restarted under the same cgroup: nobody reads the old
		// thread's stat file again, so its descriptor goes now.
		l.dropProc(vf.tid)
		vf.tid = tid
	}
	return tid, nil
}

// LastCPU implements Host.
func (l *Linux) LastCPU(tid int) (int, error) {
	b, err := l.proc(tid).read()
	if err != nil {
		l.dropProc(tid)
		return 0, err
	}
	return procfs.ParseStatLastCPUBytes(b)
}

// CoreFreqMHz implements Host.
func (l *Linux) CoreFreqMHz(core int) (int64, error) {
	b, err := l.core(core).read()
	if err != nil {
		return 0, err
	}
	khz, err := sysfs.ParseKHzBytes(b)
	if err != nil {
		return 0, err
	}
	return khz / 1000, nil
}
