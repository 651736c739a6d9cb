package platform

import (
	"fmt"
	"strconv"

	"vfreq/internal/cgroupfs"
	"vfreq/internal/memfs"
	"vfreq/internal/procfs"
	"vfreq/internal/sysfs"
	"vfreq/internal/vm"
)

// Sim adapts a simulated machine to the Host interface. All reads go
// through the emulated pseudo-files (parsing included) so the controller
// exercises the exact code paths it would use on Linux.
//
// The per-period read path is allocation-free at steady state and walks
// no paths: every pseudo-file is opened once as a memfs.File (paths are
// pure functions of VM name, vCPU index, tid or core), whose resolved
// node stays valid until the emulated tree changes shape (memfs's
// generation counter) — the simulator's counterpart of the descriptors
// Linux keeps open. File contents are rendered append-style into one
// scratch buffer, and the byte parsers walk it in place.
type Sim struct {
	mgr *vm.Manager

	vcpuPaths map[VCPURef]*simVCPUFiles
	tidPaths  map[int]*memfs.File
	corePaths []*memfs.File

	// buf is the scratch every read renders into and parses, and every
	// write renders into, before the next call overwrites it.
	buf []byte

	vmScratch []VMInfo       // ListVMs result, reused across calls
	listed    []*vm.Instance // the instances behind vmScratch
}

// simVCPUFiles holds the pseudo-file handles of one vCPU cgroup.
type simVCPUFiles struct {
	stat    *memfs.File // cpu.stat
	max     *memfs.File // cpu.max
	threads *memfs.File // cgroup.threads
}

// NewSim wraps a VM manager.
func NewSim(mgr *vm.Manager) *Sim {
	s := &Sim{
		mgr:       mgr,
		vcpuPaths: make(map[VCPURef]*simVCPUFiles),
		tidPaths:  make(map[int]*memfs.File),
	}
	m := mgr.Machine()
	s.corePaths = make([]*memfs.File, m.Spec().Cores)
	for c := range s.corePaths {
		s.corePaths[c] = m.FS.Open(sysfs.CurFreqPath(sysfs.Mount, c))
	}
	return s
}

// files returns the pseudo-file handles of a vCPU cgroup. Paths are pure
// functions of (vm, vcpu), and a handle re-resolves whenever the tree
// changes shape, so an entry is never wrong — even across a Destroy and
// re-Provision under the same name; ListVMs drops it once the vCPU is
// gone.
func (s *Sim) files(vmName string, vcpu int) *simVCPUFiles {
	k := VCPURef{VM: vmName, VCPU: vcpu}
	f := s.vcpuPaths[k]
	if f == nil {
		fs := s.mgr.Machine().FS
		base := cgroupfs.DefaultMount + "/" + vm.VCPUCgroup(vmName, vcpu)
		f = &simVCPUFiles{
			stat:    fs.Open(base + "/cpu.stat"),
			max:     fs.Open(base + "/cpu.max"),
			threads: fs.Open(base + "/cgroup.threads"),
		}
		s.vcpuPaths[k] = f
	}
	return f
}

// tidFile returns the handle on /proc/<tid>/stat.
func (s *Sim) tidFile(tid int) *memfs.File {
	f := s.tidPaths[tid]
	if f == nil {
		f = s.mgr.Machine().FS.Open(fmt.Sprintf("%s/%d/stat", procfs.Mount, tid))
		s.tidPaths[tid] = f
	}
	return f
}

// read renders a pseudo-file into the scratch buffer. The returned bytes
// are valid until the next read.
func (s *Sim) read(f *memfs.File) ([]byte, error) {
	content, err := f.ReadAppend(s.buf[:0])
	s.buf = content[:0] // keep whatever the render grew
	return content, err
}

// Node implements Host.
func (s *Sim) Node() NodeInfo {
	spec := s.mgr.Machine().Spec()
	return NodeInfo{Name: spec.Name, Cores: spec.Cores, MaxFreqMHz: spec.MaxMHz}
}

// ListVMs implements Host. The returned slice is reused by the next
// call; callers must not retain it.
//
// When the instances or their vCPU counts differ from the last call, it
// prunes the handle maps here, once per change, and not on the read path.
func (s *Sim) ListVMs() ([]VMInfo, error) {
	insts := s.mgr.List()
	out := s.vmScratch[:0]
	changed := len(insts) != len(s.listed)
	for i, inst := range insts {
		t := inst.Template()
		// out[i] still holds the last call's entry until the append.
		changed = changed || s.listed[i] != inst || s.vmScratch[i].VCPUs != t.VCPUs
		out = append(out, VMInfo{Name: inst.Name(), VCPUs: t.VCPUs, FreqMHz: t.FreqMHz})
	}
	s.vmScratch = out
	if changed {
		s.listed = append(s.listed[:0], insts...)
		s.prune()
	}
	return out, nil
}

// prune drops the handles of vCPUs and threads that no longer
// exist. Thread ids are never reused and a churning node keeps meeting
// new VM names, so without it both maps grow for as long as the node
// lives.
func (s *Sim) prune() {
	threads := s.mgr.Machine().Sched
	for k := range s.vcpuPaths {
		if inst := s.mgr.Get(k.VM); inst == nil || k.VCPU >= inst.Template().VCPUs {
			delete(s.vcpuPaths, k)
		}
	}
	for tid := range s.tidPaths {
		if threads.Thread(tid) == nil {
			delete(s.tidPaths, tid)
		}
	}
}

// UsageUs implements Host.
func (s *Sim) UsageUs(vmName string, vcpu int) (int64, error) {
	content, err := s.read(s.files(vmName, vcpu).stat)
	if err != nil {
		return 0, fmt.Errorf("platform: reading cpu.stat of %s/vcpu%d: %w", vmName, vcpu, err)
	}
	return cgroupfs.ParseCPUStatBytes(content, "usage_usec")
}

// SetMax implements Host. The write renders into the scratch buffer; its
// one allocation is the string the pseudo-file is handed.
func (s *Sim) SetMax(vmName string, vcpu int, quotaUs, periodUs int64) error {
	s.buf = strconv.AppendInt(s.buf[:0], quotaUs, 10)
	s.buf = append(s.buf, ' ')
	s.buf = strconv.AppendInt(s.buf, periodUs, 10)
	return s.files(vmName, vcpu).max.Write(string(s.buf))
}

// BatchSetMax implements BatchQuotaWriter through the serial adapter.
//
// Deprecated: unused by the controller; kept only until benchmark/
// stops requiring BatchQuotaWriter of the hosts it wraps.
func (s *Sim) BatchSetMax(vmName string, quotas []VCPUQuota) error {
	return serialBatch{s}.BatchSetMax(vmName, quotas)
}

// ReadMax implements QuotaReader: it reads the vCPU's cpu.max back
// through the pseudo-file, exactly as the controller would on Linux.
func (s *Sim) ReadMax(vmName string, vcpu int) (int64, int64, error) {
	content, err := s.read(s.files(vmName, vcpu).max)
	if err != nil {
		return 0, 0, fmt.Errorf("platform: reading cpu.max of %s/vcpu%d: %w", vmName, vcpu, err)
	}
	return parseMax(string(content))
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

// ClearMax implements Host.
func (s *Sim) ClearMax(vmName string, vcpu int) error {
	return s.files(vmName, vcpu).max.Write("max")
}

// SetBurst implements Host the way a kernel before 5.14 answers: the
// emulated tree has no cpu.max.burst, so the write fails with an error
// wrapping memfs.ErrNotExist.
//
// Deprecated: unused by the controller; kept only until benchmark/ stops
// requiring it of the hosts it wraps.
func (s *Sim) SetBurst(vmName string, vcpu int, burstUs int64) error {
	return fmt.Errorf("platform: writing cpu.max.burst of %s/vcpu%d: %w", vmName, vcpu, memfs.ErrNotExist)
}

// ThreadID implements Host.
func (s *Sim) ThreadID(vmName string, vcpu int) (int, error) {
	content, err := s.read(s.files(vmName, vcpu).threads)
	if err != nil {
		return 0, err
	}
	tid, n, err := cgroupfs.ParseSingleTID(content)
	if err != nil {
		return 0, err
	}
	if n != 1 {
		return 0, fmt.Errorf("platform: vCPU cgroup %s/vcpu%d holds %d threads, want 1",
			vmName, vcpu, n)
	}
	return tid, nil
}

// LastCPU implements Host.
func (s *Sim) LastCPU(tid int) (int, error) {
	line, err := s.read(s.tidFile(tid))
	if err != nil {
		return 0, err
	}
	return procfs.ParseStatLastCPUBytes(line)
}

// CoreNodes implements Topology: it reads the emulated
// /sys/devices/system/node tree, exactly as the Linux backend reads
// the real one, and like it fails on an unreadable tree or a malformed
// cpulist instead of returning a partly filled map.
func (s *Sim) CoreNodes() ([]int, error) {
	m := s.mgr.Machine()
	names, err := m.FS.ReadDir(sysfs.NodeMount)
	if err != nil {
		return nil, err
	}
	nodes := make([]int, m.Spec().Cores)
	for _, name := range names {
		var id int
		if _, err := fmt.Sscanf(name, "node%d", &id); err != nil || id < 0 {
			continue // the "online" file
		}
		content, err := m.FS.ReadFile(sysfs.NodeCPUListPath(sysfs.NodeMount, id))
		if err != nil {
			return nil, err
		}
		cpus, err := sysfs.ParseCPUList(content)
		if err != nil {
			return nil, err
		}
		for _, c := range cpus {
			if c >= 0 && c < len(nodes) {
				nodes[c] = id
			}
		}
	}
	return nodes, nil
}

// CoreFreqMHz implements Host.
func (s *Sim) CoreFreqMHz(core int) (int64, error) {
	if core < 0 || core >= len(s.corePaths) {
		return 0, fmt.Errorf("platform: core %d out of range", core)
	}
	content, err := s.read(s.corePaths[core])
	if err != nil {
		return 0, err
	}
	khz, err := sysfs.ParseKHzBytes(content)
	if err != nil {
		return 0, err
	}
	return khz / 1000, nil
}
