package platform

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
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
// Three answers are remembered instead of re-read every period, each with
// the events that invalidate it (DESIGN §7 has the table):
//
//   - ListVMs keeps its last scan of the tree and an inotify watch on the
//     root and on every VM scope, each armed before its directory was
//     listed. A call whose one read of the watch answers EAGAIN answers
//     from the scan; any event, an overflow, a read error, a watch that
//     could not be armed and — the backstop for a change the watch does
//     not report — any cached descriptor that failed since the scan make
//     it scan again. The Freqs filter and the scan are separate: a
//     template registered or withdrawn shows on the next call, scan or
//     no scan.
//   - ThreadID keeps the tid it found until LastCPU(tid) or the vCPU's
//     cpu.stat read fails. A replaced thread is therefore noticed on the
//     call that fails, not before: one period without that vCPU's
//     placement, after which the new tid is read.
//   - CoreFreqMHz reads each core's scaling_cur_freq once per ListVMs
//     call and answers from that reading until the next call: one
//     period stale at most, as the Host doc allows. A failed read is not
//     remembered, and the next call reads again.
//
// A quota write (SetMax, ClearMax) truncates the file only on a fresh
// descriptor or when the payload is shorter than the one before: the
// handle remembers the length its last write left the file at, and
// forgets it when the descriptor closes. That relies on the controller
// being the file's only writer while it holds the descriptor open. On
// kernfs a write is the whole value and leaves no tail to remove; a tree
// of regular files (the tests, the benchmark) must have cpu.max written
// before the backend first opens it, and not rewritten behind it.
//
// The inotify watch makes this type Linux-only.
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
	cores []coreFreq // one per core, built on the first CoreFreqMHz

	// epoch counts ListVMs calls: a core frequency read in this epoch is
	// answered again until the next call.
	epoch uint64

	// The last scan of the cgroup tree, unfiltered by Freqs: one entry
	// per VM scope under it, and the watch armed on the root and on every
	// scope before each was listed. scanOK is set by a completed scan and
	// cleared by any handle whose open, read or write failed since.
	scan   []dirScan
	watch  *watch
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

// coreFreq is one core's kept-open scaling_cur_freq and the MHz last read
// from it, valid while epoch is the host's and nonzero.
type coreFreq struct {
	handle
	mhz   int64
	epoch uint64
}

// handle is one kept-open file plus its scratch buffer. Reads pread at
// offset zero, so there is no seek position to maintain.
type handle struct {
	path string
	f    *os.File
	// fd is f's descriptor, taken once when read opens it: (*os.File).Fd
	// on a pollable file (kernfs and sysfs files are) costs an fcntl per
	// call.
	fd   int
	host *Linux // told of every failure, see Linux.scanOK
	// size is the length the last write left the file at, 0 while it is
	// not known: on a fresh descriptor, or after a failed truncate. No
	// payload is empty.
	size int
	buf  [512]byte
}

// failed drops the descriptor, so the next call reopens the path, and
// makes the host's next ListVMs scan the tree again.
func (h *handle) failed() {
	h.close()
	h.host.scanOK = false
}

// read returns the file's current contents, valid until the handle's
// next read or write: one pread(2) at offset zero into the scratch. Every
// pseudo-file the monitor reads fits, and a longer one is cut at the
// scratch's length. (*os.File).ReadAt would read again until the buffer
// is full, so a short file cost a second pread that returned 0.
func (h *handle) read() ([]byte, error) {
	if h.f == nil {
		f, err := os.Open(h.path)
		if err != nil {
			h.failed()
			return nil, err
		}
		h.f, h.fd = f, int(f.Fd())
	}
	for {
		n, err := syscall.Pread(h.fd, h.buf[:], 0)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			h.failed()
			return nil, &os.PathError{Op: "read", Path: h.path, Err: err}
		}
		return h.buf[:n], nil
	}
}

// write pwrites the payload at offset zero. A kernfs control file takes
// every write as the whole value; a regular file keeps the bytes past the
// payload, so the file is truncated to the payload's length whenever it
// may be longer: on a fresh descriptor and after a longer payload (see
// the Linux doc for the single-writer assumption). A failed truncate is
// ignored, and the next write truncates again.
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
	n := len(payload)
	if h.size == 0 || n < h.size {
		if h.f.Truncate(int64(n)) != nil {
			n = 0
		}
	}
	h.size = n
	return nil
}

func (h *handle) close() {
	if h.f != nil {
		h.f.Close()
		h.f = nil
	}
	h.size = 0
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

// watchMask is what the listing's watch reports: a child created,
// deleted or renamed in or out of a watched directory, and the directory
// itself deleted or renamed. IN_ONLYDIR refuses a name that is no
// directory.
const watchMask = syscall.IN_CREATE | syscall.IN_DELETE | syscall.IN_MOVED_FROM | syscall.IN_MOVED_TO |
	syscall.IN_DELETE_SELF | syscall.IN_MOVE_SELF | syscall.IN_ONLYDIR

// nameMax is NAME_MAX, the longest name an inotify event carries.
const nameMax = 255

// watch is the non-blocking inotify descriptor behind the listing, -1
// while none is open: not yet armed, or a watch could not be added, after
// which every ListVMs scans. A finalizer closes it when the backend is
// dropped without a last scan to replace it.
type watch struct {
	fd  int
	buf [syscall.SizeofInotifyEvent + nameMax + 1]byte // room for one event
}

func newWatch() *watch {
	w := &watch{fd: -1}
	runtime.SetFinalizer(w, (*watch).close)
	return w
}

// rearm replaces the descriptor with a fresh one that watches nothing
// yet, releasing the events the old one held.
func (w *watch) rearm() {
	w.close()
	if fd, err := syscall.InotifyInit1(syscall.IN_NONBLOCK | syscall.IN_CLOEXEC); err == nil {
		w.fd = fd
	}
}

// add watches the directory at path. A watch that cannot be added closes
// the descriptor: a listing that is not wholly watched is never current.
func (w *watch) add(path string) {
	if w.fd < 0 {
		return
	}
	if _, err := syscall.InotifyAddWatch(w.fd, path, watchMask); err != nil {
		w.close()
	}
}

// quiet reports whether no watched directory changed since it was added:
// one read that answers EAGAIN. An event, an overflow and a failed read
// all answer false.
func (w *watch) quiet() bool {
	if w.fd < 0 {
		return false
	}
	for {
		_, err := syscall.Read(w.fd, w.buf[:])
		if err != syscall.EINTR {
			return err == syscall.EAGAIN
		}
	}
}

func (w *watch) close() {
	if w.fd >= 0 {
		syscall.Close(w.fd)
		w.fd = -1
	}
}

// dirScan is one VM scope under the cgroup root as the last scan found it.
type dirScan struct {
	vm    string
	vcpus int
}

// scanDir watches one VM's scope and then counts its vcpuN sub-cgroups.
// gone reports a scope that departed between the root's listing and this
// scan, which is no error: it is simply not there any more.
func (w *watch) scanDir(path, vm string) (s dirScan, gone bool, err error) {
	s.vm = vm
	w.add(path)
	subs, err := os.ReadDir(path)
	for _, sub := range subs {
		if sub.IsDir() && strings.HasPrefix(sub.Name(), "vcpu") {
			s.vcpus++
		}
	}
	if errors.Is(err, syscall.ENOENT) || errors.Is(err, syscall.ENOTDIR) {
		return s, true, nil
	}
	return s, false, err
}

// rescan lists the whole tree into l.scan under a fresh watch, each
// directory watched before it is listed: a change made while the scan
// runs is reported on the next call.
func (l *Linux) rescan() error {
	l.scanOK = false
	if l.watch == nil {
		l.watch = newWatch()
	}
	w := l.watch
	w.rearm()
	w.add(l.CgroupRoot)
	entries, err := os.ReadDir(l.CgroupRoot)
	if err != nil {
		return err
	}
	l.scan = l.scan[:0]
	for _, e := range entries {
		// Only libvirt's machine-qemu-<name>.scope is a VM: vcpu() rebuilds
		// the directory from the name, so a scope without the prefix could
		// be listed but never read.
		vm, prefixed := strings.CutPrefix(e.Name(), "machine-qemu-")
		vm, suffixed := strings.CutSuffix(vm, ".scope")
		if !e.IsDir() || !prefixed || !suffixed {
			continue
		}
		s, gone, err := w.scanDir(filepath.Join(l.CgroupRoot, e.Name()), vm)
		if err != nil {
			return err
		}
		if !gone {
			l.scan = append(l.scan, s)
		}
	}
	l.scanOK = true
	return nil
}

// scanCurrent reports whether the tree still is what rescan listed: no
// descriptor failed since, and the watch has nothing to report.
func (l *Linux) scanCurrent() bool {
	return l.scanOK && l.watch.quiet()
}

// ListVMs implements Host. The tree is scanned only when scanCurrent
// cannot vouch for the last scan; Freqs is looked up on every call, so a
// template registered or withdrawn shows at once. Cached descriptors are
// pruned after a scan and when the result differs from the last one, not
// on every call.
func (l *Linux) ListVMs() ([]VMInfo, error) {
	l.epoch++
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

// parseMax is ReadMax's answer for a cpu.max file's content, "max" read as
// NoQuota.
func parseMax(content string) (quotaUs, periodUs int64, err error) {
	quotaUs, periodUs, err = cgroupfs.ParseCPUMax(content, 100_000)
	if err == nil && quotaUs < 0 {
		quotaUs = NoQuota
	}
	return quotaUs, periodUs, err
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

// CoreFreqMHz implements Host, answering from one read per core per
// ListVMs call (see the Linux doc).
func (l *Linux) CoreFreqMHz(core int) (int64, error) {
	// The index is outside input (parsed from /proc/<tid>/stat). One the
	// node does not have is refused before a handle is built for it, whose
	// failed open would have the next ListVMs scan the tree again.
	if core < 0 || core >= l.Cores {
		return 0, fmt.Errorf("platform: core %d out of range", core)
	}
	if l.cores == nil {
		l.cores = make([]coreFreq, l.Cores)
	}
	c := &l.cores[core]
	if c.epoch == l.epoch && c.epoch != 0 {
		return c.mhz, nil
	}
	if c.path == "" {
		c.handle = handle{path: sysfs.CurFreqPath(l.SysCPURoot, core), host: l}
	}
	b, err := c.read()
	if err != nil {
		return 0, err
	}
	khz, err := sysfs.ParseKHzBytes(b)
	if err != nil {
		return 0, err
	}
	c.mhz, c.epoch = khz/1000, l.epoch
	return c.mhz, nil
}
