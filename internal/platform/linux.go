package platform

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"

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
// The per-period paths (UsageUs, ThreadID, LastCPU, CoreFreqMHz, SetMax),
// and the deprecated SetBurst, keep their files open and pread/pwrite at
// offset zero into per-file scratch buffers, so a steady-state control
// Step performs no path construction, no open/close churn and no heap
// allocation. A failed read or write closes and drops the descriptor, and
// the next call reopens the path — which is how cgroup recreation on VM
// restart is picked up.
//
// Two answers are remembered instead of re-read every period, each with
// the events that invalidate it (DESIGN §7 has the table):
//
//   - ListVMs keeps its last scan of the tree and only re-stats the root
//     and every directory under it. It scans again when a (st_ino,
//     st_nlink, st_mtim) moved, when a stat fails, and — the backstop for
//     a change no stat shows — when any cached descriptor failed since
//     the scan. The Freqs filter and the scan are separate: a template
//     registered or withdrawn shows on the next call, scan or no scan.
//   - ThreadID keeps the tid it found until LastCPU(tid) or the vCPU's
//     cpu.stat read fails. A replaced thread is therefore noticed on the
//     call that fails, not before: one period without that vCPU's
//     placement, after which the new tid is read.
//
// The stat identity makes this type Linux-only (syscall.Stat_t.Mtim).
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
	vcpus map[VCPURef]*vcpuFiles
	procs map[int]*procFile
	cores map[int]*handle

	// The last scan of the cgroup tree, unfiltered by Freqs: rootID is
	// the root's identity taken before its listing, scan one entry per
	// directory under it. scanOK is set by a completed scan and cleared
	// by any handle whose open, read or write failed since.
	rootID dirID
	scan   []dirScan
	scanOK bool
	// listed is the previous ListVMs result: descriptors are pruned only
	// when the result differs from it.
	listed []VMInfo

	// coreNodes caches the NUMA topology (core → node), discovered once
	// like the cgroup paths: the placement of logical CPUs never changes
	// while the controller runs.
	coreNodes []int
}

// vcpuFiles caches one vCPU cgroup's control files.
type vcpuFiles struct {
	stat    handle // cpu.stat (read)
	threads handle // cgroup.threads (read)
	max     handle // cpu.max (write)
	burst   handle // cpu.max.burst (write)
	// tid is the vCPU's thread as ThreadID last read it (0: not known,
	// read cgroup.threads); Linux.procs[tid] points back here and lives
	// and dies with it.
	tid int
}

func (vf *vcpuFiles) close() {
	vf.stat.close()
	vf.threads.close()
	vf.max.close()
	vf.burst.close()
}

// procFile is one thread's kept-open /proc/<tid>/stat. The descriptor is
// bound to the task, not the number: once the thread is gone it reads
// ESRCH even if the tid was reused.
type procFile struct {
	handle
	owner *vcpuFiles // the vCPU whose tid this is; nil for a tid ThreadID never returned
}

// handle is one kept-open file plus its scratch buffer. Reads pread at
// offset zero, so there is no seek position to maintain.
type handle struct {
	path string
	f    *os.File
	host *Linux // told of every failure, see Linux.scanOK
	buf  [512]byte
}

// failed drops the descriptor, so the next call reopens the path, and
// makes the host's next ListVMs scan the tree again.
func (h *handle) failed() {
	h.close()
	h.host.scanOK = false
}

// read returns the file's current contents, pread into the handle's
// scratch and valid until the handle's next read or write.
func (h *handle) read() ([]byte, error) {
	if h.f == nil {
		f, err := os.Open(h.path)
		if err != nil {
			h.failed()
			return nil, err
		}
		h.f = f
	}
	n, err := h.f.ReadAt(h.buf[:], 0)
	if err != nil && err != io.EOF {
		h.failed()
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
			h.failed()
			return err
		}
		h.f = f
	}
	if _, err := h.f.WriteAt(payload, 0); err != nil {
		h.failed()
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
		l.vcpus = map[VCPURef]*vcpuFiles{}
	}
	ref := VCPURef{VM: vm, VCPU: vcpu}
	vf, ok := l.vcpus[ref]
	if !ok {
		dir := filepath.Join(l.CgroupRoot, "machine-qemu-"+vm+".scope", "vcpu"+strconv.Itoa(vcpu))
		file := func(name string) handle {
			return handle{path: filepath.Join(dir, name), host: l}
		}
		vf = &vcpuFiles{
			stat:    file("cpu.stat"),
			threads: file("cgroup.threads"),
			max:     file("cpu.max"),
			burst:   file("cpu.max.burst"),
		}
		l.vcpus[ref] = vf
	}
	return vf
}

// proc returns the cached /proc/<tid>/stat handle.
func (l *Linux) proc(tid int) *procFile {
	if l.procs == nil {
		l.procs = map[int]*procFile{}
	}
	p, ok := l.procs[tid]
	if !ok {
		p = &procFile{handle: handle{path: filepath.Join(l.ProcRoot, strconv.Itoa(tid), "stat"), host: l}}
		l.procs[tid] = p
	}
	return p
}

// dropProc closes and forgets a thread's handle, and with it the tid its
// vCPU remembers: on a failed read (the thread is likely gone), on a
// failed cpu.stat read of its vCPU (the cgroup was likely rebuilt around
// a new thread), and when the vCPU departs.
func (l *Linux) dropProc(tid int) {
	if p, ok := l.procs[tid]; ok {
		p.close()
		if p.owner != nil {
			p.owner.tid = 0
		}
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
		h = &handle{path: sysfs.CurFreqPath(l.SysCPURoot, core), host: l}
		l.cores[core] = h
	}
	return h
}

// pruneDeparted closes and forgets the cached files of VMs (or trailing
// vCPUs after a shrink) no longer present on the host.
func (l *Linux) pruneDeparted(live []VMInfo) {
	vcpus := make(map[string]int, len(live))
	for _, vm := range live {
		vcpus[vm.Name] = vm.VCPUs
	}
	for ref, vf := range l.vcpus {
		if ref.VCPU >= vcpus[ref.VM] {
			vf.close()
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

// dirID is what a directory's listing is remembered under. On kernfs a
// mkdir or rmdir of a child moves st_nlink and leaves st_mtim alone, and
// a directory recreated under its old name has a new st_ino; a regular
// filesystem (the tests, the benchmark tree) moves mtime too.
type dirID struct {
	ino, nlink uint64
	sec, nsec  int64
}

// statDir returns the identity of the directory at path.
func statDir(path string) (dirID, error) {
	var st syscall.Stat_t
	if err := syscall.Lstat(path, &st); err != nil {
		return dirID{}, &os.PathError{Op: "lstat", Path: path, Err: err}
	}
	return dirID{ino: st.Ino, nlink: uint64(st.Nlink), sec: int64(st.Mtim.Sec), nsec: int64(st.Mtim.Nsec)}, nil
}

// dirScan is one directory under the cgroup root as the last scan found
// it. Every directory is remembered, not only the VM scopes: on kernfs a
// sibling that left in the period a VM arrived keeps the root's st_nlink
// where it was, and only the sibling's own failing stat shows the change.
type dirScan struct {
	path  string
	vm    string // the VM of a machine-qemu-<vm>.scope, "" for any other directory
	id    dirID  // taken before the listing that counted vcpus
	vcpus int
}

// identity stats the directory. Of one that is no VM's only the inode
// counts: what happens inside it is not listed.
func (s *dirScan) identity() (dirID, error) {
	id, err := statDir(s.path)
	if s.vm == "" {
		id = dirID{ino: id.ino}
	}
	return id, err
}

// scanDir stats one directory under the cgroup root and, for a VM's scope,
// counts its vcpuN sub-cgroups. gone reports a directory that departed
// between the root's listing and this scan, which is no error: it is
// simply not there any more.
func scanDir(path, vm string) (s dirScan, gone bool, err error) {
	s.path, s.vm = path, vm
	s.id, err = s.identity()
	if err == nil && vm != "" {
		var subs []os.DirEntry
		subs, err = os.ReadDir(path)
		for _, sub := range subs {
			if sub.IsDir() && strings.HasPrefix(sub.Name(), "vcpu") {
				s.vcpus++
			}
		}
	}
	if errors.Is(err, syscall.ENOENT) || errors.Is(err, syscall.ENOTDIR) {
		return s, true, nil
	}
	return s, false, err
}

// rescan lists the whole tree into l.scan.
func (l *Linux) rescan() error {
	l.scanOK = false
	rootID, err := statDir(l.CgroupRoot)
	if err != nil {
		return err
	}
	entries, err := os.ReadDir(l.CgroupRoot)
	if err != nil {
		return err
	}
	l.scan = l.scan[:0]
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		// Only libvirt's machine-qemu-<name>.scope is a VM: vcpu() rebuilds
		// the directory from the name, so a scope without the prefix could
		// be listed but never read.
		vm, prefixed := strings.CutPrefix(e.Name(), "machine-qemu-")
		vm, suffixed := strings.CutSuffix(vm, ".scope")
		if !prefixed || !suffixed {
			vm = ""
		}
		s, gone, err := scanDir(filepath.Join(l.CgroupRoot, e.Name()), vm)
		if err != nil {
			return err
		}
		if !gone {
			l.scan = append(l.scan, s)
		}
	}
	l.rootID, l.scanOK = rootID, true
	return nil
}

// scanCurrent reports whether the tree still is what rescan listed: no
// descriptor failed since, and the root and every directory under it
// stat as they did.
func (l *Linux) scanCurrent() bool {
	if !l.scanOK {
		return false
	}
	if id, err := statDir(l.CgroupRoot); err != nil || id != l.rootID {
		return false
	}
	for i := range l.scan {
		if id, err := l.scan[i].identity(); err != nil || id != l.scan[i].id {
			return false
		}
	}
	return true
}

// ListVMs implements Host. The tree is scanned only when scanCurrent says
// it moved; Freqs is looked up on every call, so a template registered or
// withdrawn shows at once. Cached descriptors are pruned after a scan and
// when the result differs from the last one, not on every call.
func (l *Linux) ListVMs() ([]VMInfo, error) {
	rescanned := !l.scanCurrent()
	if rescanned {
		if err := l.rescan(); err != nil {
			return nil, err
		}
	}
	out := make([]VMInfo, 0, len(l.scan))
	for i := range l.scan {
		s := &l.scan[i]
		if s.vcpus == 0 {
			continue
		}
		freq, ok := l.Freqs[s.vm]
		if !ok {
			continue // no template registered: not under our control
		}
		out = append(out, VMInfo{Name: s.vm, VCPUs: s.vcpus, FreqMHz: freq})
	}
	if rescanned || !slices.Equal(out, l.listed) {
		l.pruneDeparted(out)
		l.listed = append(l.listed[:0], out...)
	}
	return out, nil
}

// UsageUs implements Host.
func (l *Linux) UsageUs(vm string, vcpu int) (int64, error) {
	vf := l.vcpu(vm, vcpu)
	b, err := vf.stat.read()
	if err != nil {
		// The cgroup was probably rebuilt (VM restart), around a new
		// thread: have ThreadID look again.
		l.dropProc(vf.tid)
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

// BatchSetMax implements BatchQuotaWriter through the serial adapter.
//
// Deprecated: unused by the controller; kept only until benchmark/
// stops requiring BatchQuotaWriter of the hosts it wraps.
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
	return parseMax(string(b))
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

// ThreadID implements Host: the tid found last time, or cgroup.threads
// when none is remembered (see dropProc for what forgets it).
func (l *Linux) ThreadID(vm string, vcpu int) (int, error) {
	vf := l.vcpu(vm, vcpu)
	if vf.tid != 0 {
		return vf.tid, nil
	}
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
	l.dropProc(tid) // a remembered owner of this number is out of date
	vf.tid = tid
	l.proc(tid).owner = vf
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
	// The index is outside input (parsed from /proc/<tid>/stat). One the
	// node does not have is refused before a handle is built for it, whose
	// failed open would have the next ListVMs scan the tree again.
	if core < 0 || core >= l.Cores {
		return 0, fmt.Errorf("platform: core %d out of range", core)
	}
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
