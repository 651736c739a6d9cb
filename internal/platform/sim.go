package platform

import (
	"fmt"
	"io/fs"
	"strconv"

	"vfreq/internal/cgroupfs"
	"vfreq/internal/host"
	"vfreq/internal/procfs"
	"vfreq/internal/sched"
	"vfreq/internal/sysfs"
	"vfreq/internal/vm"
)

// Sim adapts a simulated machine to the Host interface. It answers each
// call from the model a kernel's pseudo-files would report: the vCPU
// cgroup's sched.Group for cpu.stat, cpu.max and cgroup.threads, the
// sched.Thread for /proc/<tid>/stat, and the dvfs.Model for
// scaling_cur_freq. The values are the ones those files carry, down to a
// never-run thread's core 0; platform.Linux is the backend that parses
// them.
//
// Every read names the file it stands for: it first asks the machine for
// an armed fault on that path (host.Machine.ReadFault), as a kernel read
// can race a dying thread before it finds the file, and only then looks
// the model up, afresh on every call, so a VM destroyed and provisioned
// again under its name is read as the new one. An unknown VM, vCPU or tid
// is an error wrapping fs.ErrNotExist that names the path. The paths are
// kept per vCPU, tid and core, so the per-period read path allocates
// nothing at steady state.
type Sim struct {
	mgr *vm.Manager
	m   *host.Machine

	vcpuPaths map[VCPURef]simVCPUPaths
	tidPaths  map[int]string // /proc/<tid>/stat
	corePaths []string       // scaling_cur_freq, by core

	vmScratch []VMInfo       // ListVMs result, reused across calls
	listed    []*vm.Instance // the instances behind vmScratch
}

// simVCPUPaths holds the pseudo-file paths of one vCPU cgroup.
type simVCPUPaths struct {
	stat, max, threads string // cpu.stat, cpu.max, cgroup.threads
}

// NewSim wraps a VM manager.
func NewSim(mgr *vm.Manager) *Sim {
	s := &Sim{
		mgr:       mgr,
		m:         mgr.Machine(),
		vcpuPaths: make(map[VCPURef]simVCPUPaths),
		tidPaths:  make(map[int]string),
	}
	s.corePaths = make([]string, s.m.Spec().Cores)
	for c := range s.corePaths {
		s.corePaths[c] = sysfs.CurFreqPath(sysfs.Mount, c)
	}
	return s
}

// paths returns the pseudo-file paths of a vCPU cgroup. Paths are pure
// functions of (vm, vcpu), so an entry is never wrong; ListVMs drops it
// once the vCPU is gone.
func (s *Sim) paths(vmName string, vcpu int) simVCPUPaths {
	k := VCPURef{VM: vmName, VCPU: vcpu}
	p, ok := s.vcpuPaths[k]
	if !ok {
		base := cgroupfs.DefaultMount + "/" + vm.VCPUCgroup(vmName, vcpu)
		p = simVCPUPaths{stat: base + "/cpu.stat", max: base + "/cpu.max", threads: base + "/cgroup.threads"}
		s.vcpuPaths[k] = p
	}
	return p
}

// tidPath returns the path of /proc/<tid>/stat.
func (s *Sim) tidPath(tid int) string {
	p, ok := s.tidPaths[tid]
	if !ok {
		p = procfs.Mount + "/" + strconv.Itoa(tid) + "/stat"
		s.tidPaths[tid] = p
	}
	return p
}

// notExist is the error of a read or write of a file the model does not
// hold.
func notExist(path string) error { return fmt.Errorf("platform: %s: %w", path, fs.ErrNotExist) }

// group returns the cgroup of vCPU vcpu of the named VM, or nil.
func (s *Sim) group(vmName string, vcpu int) *sched.Group {
	inst := s.mgr.Get(vmName)
	if inst == nil || vcpu < 0 || vcpu >= inst.Template().VCPUs {
		return nil
	}
	return inst.VCPUThread(vcpu).Group
}

// readGroup is a read of the file at path of a vCPU cgroup: the armed
// fault on path first, then the group.
func (s *Sim) readGroup(vmName string, vcpu int, path string) (*sched.Group, error) {
	if err := s.m.ReadFault(path); err != nil {
		return nil, err
	}
	if g := s.group(vmName, vcpu); g != nil {
		return g, nil
	}
	return nil, notExist(path)
}

// Node implements Host.
func (s *Sim) Node() NodeInfo {
	spec := s.m.Spec()
	return NodeInfo{Name: spec.Name, Cores: spec.Cores, MaxFreqMHz: spec.MaxMHz}
}

// ListVMs implements Host. The returned slice is reused by the next
// call; callers must not retain it.
//
// When the instances or their vCPU counts differ from the last call, it
// prunes the path maps here, once per change, and not on the read path.
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

// prune drops the paths of vCPUs and threads that no longer exist. Thread
// ids are never reused and a churning node keeps meeting new VM names, so
// without it both maps grow for as long as the node lives.
func (s *Sim) prune() {
	for k := range s.vcpuPaths {
		if inst := s.mgr.Get(k.VM); inst == nil || k.VCPU >= inst.Template().VCPUs {
			delete(s.vcpuPaths, k)
		}
	}
	for tid := range s.tidPaths {
		if s.m.Sched.Thread(tid) == nil {
			delete(s.tidPaths, tid)
		}
	}
}

// UsageUs implements Host: the vCPU cgroup's usage_usec.
func (s *Sim) UsageUs(vmName string, vcpu int) (int64, error) {
	g, err := s.readGroup(vmName, vcpu, s.paths(vmName, vcpu).stat)
	if err != nil {
		return 0, fmt.Errorf("platform: reading cpu.stat of %s/vcpu%d: %w", vmName, vcpu, err)
	}
	return g.UsageUs, nil
}

// SetMax implements Host. Like a cpu.max write, it refuses a quota or a
// period that is not positive, which sched.Group.SetQuota would take.
func (s *Sim) SetMax(vmName string, vcpu int, quotaUs, periodUs int64) error {
	g := s.group(vmName, vcpu)
	if g == nil {
		return notExist(s.paths(vmName, vcpu).max)
	}
	if quotaUs <= 0 || periodUs <= 0 {
		return fmt.Errorf("platform: writing cpu.max of %s/vcpu%d: quota %d and period %d must be positive",
			vmName, vcpu, quotaUs, periodUs)
	}
	return g.SetQuota(quotaUs, periodUs)
}

// BatchSetMax implements BatchQuotaWriter through the serial adapter.
//
// Deprecated: unused by the controller; kept only until benchmark/
// stops requiring BatchQuotaWriter of the hosts it wraps.
func (s *Sim) BatchSetMax(vmName string, quotas []VCPUQuota) error {
	return serialBatch{s}.BatchSetMax(vmName, quotas)
}

// ReadMax implements QuotaReader: the vCPU cgroup's quota (NoQuota when
// unlimited, sched.NoQuota being NoQuota) and period.
func (s *Sim) ReadMax(vmName string, vcpu int) (int64, int64, error) {
	g, err := s.readGroup(vmName, vcpu, s.paths(vmName, vcpu).max)
	if err != nil {
		return 0, 0, fmt.Errorf("platform: reading cpu.max of %s/vcpu%d: %w", vmName, vcpu, err)
	}
	return g.QuotaUs, g.PeriodUs, nil
}

// ClearMax implements Host. Like a "max" write to cpu.max, it keeps the
// period in force.
func (s *Sim) ClearMax(vmName string, vcpu int) error {
	g := s.group(vmName, vcpu)
	if g == nil {
		return notExist(s.paths(vmName, vcpu).max)
	}
	return g.SetQuota(sched.NoQuota, g.PeriodUs)
}

// SetBurst implements Host the way a kernel before 5.14 answers: the
// simulated cgroup has no cpu.max.burst, so the write fails with an error
// wrapping fs.ErrNotExist.
//
// Deprecated: unused by the controller; kept only until benchmark/ stops
// requiring it of the hosts it wraps.
func (s *Sim) SetBurst(vmName string, vcpu int, burstUs int64) error {
	return fmt.Errorf("platform: writing cpu.max.burst of %s/vcpu%d: %w", vmName, vcpu, fs.ErrNotExist)
}

// ThreadID implements Host: the one thread of the vCPU cgroup.
func (s *Sim) ThreadID(vmName string, vcpu int) (int, error) {
	g, err := s.readGroup(vmName, vcpu, s.paths(vmName, vcpu).threads)
	if err != nil {
		return 0, err
	}
	if n := len(g.Threads); n != 1 {
		return 0, fmt.Errorf("platform: vCPU cgroup %s/vcpu%d holds %d threads, want 1",
			vmName, vcpu, n)
	}
	return g.Threads[0].ID, nil
}

// LastCPU implements Host. A thread that never ran reports core 0, as
// its /proc/<tid>/stat does.
func (s *Sim) LastCPU(tid int) (int, error) {
	p := s.tidPath(tid)
	if err := s.m.ReadFault(p); err != nil {
		return 0, err
	}
	th := s.m.Sched.Thread(tid)
	if th == nil {
		return 0, notExist(p)
	}
	return max(th.LastCPU, 0), nil
}

// CoreNodes implements Topology: the NUMA layout of the machine's spec
// (host.Spec.CoreNodes).
func (s *Sim) CoreNodes() ([]int, error) {
	return s.m.Spec().CoreNodes(), nil
}

// CoreFreqMHz implements Host.
func (s *Sim) CoreFreqMHz(core int) (int64, error) {
	if core < 0 || core >= len(s.corePaths) {
		return 0, fmt.Errorf("platform: core %d out of range", core)
	}
	if err := s.m.ReadFault(s.corePaths[core]); err != nil {
		return 0, err
	}
	return s.m.DVFS.FreqMHz(core), nil
}
