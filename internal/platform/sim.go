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
// Every read stands for a file: while the machine has a read fault armed
// (host.Machine.FaultsArmed), it builds that file's path and asks for the
// fault (host.Machine.ReadFault) before it looks anything up, as a kernel
// read can race a dying thread before it finds the file. While none is
// armed it builds no path, and a read allocates nothing. An unknown VM,
// vCPU or tid is an error wrapping fs.ErrNotExist that names the path.
//
// Sim remembers two references, the access pattern of the controller's
// monitor stage: the instance it last resolved by name and the thread it
// last resolved by tid. Each is checked against the model before it is
// used — an instance the VM manager destroyed, or a thread the scheduler
// removed, is looked up afresh — so a VM destroyed and provisioned again
// under its name is read as the new one. Like every Host, Sim is driven
// by one goroutine, and the references take no lock.
type Sim struct {
	mgr *vm.Manager
	m   *host.Machine

	inst   *vm.Instance  // last resolved by name; nil after a miss
	thread *sched.Thread // last resolved by tid; nil after a miss

	vmScratch []VMInfo // ListVMs result, reused across calls
}

// NewSim wraps a VM manager.
func NewSim(mgr *vm.Manager) *Sim {
	return &Sim{mgr: mgr, m: mgr.Machine()}
}

// vcpuFile returns the path of a file of a vCPU cgroup,
// cgroupfs.DefaultMount + "/" + vm.VCPUCgroup(vmName, vcpu) + "/" + file,
// spelled out so that it is built in one allocation.
func vcpuFile(vmName string, vcpu int, file string) string {
	return cgroupfs.DefaultMount + "/" + vm.Slice + "/machine-qemu-" + vmName + ".scope/vcpu" +
		strconv.Itoa(vcpu) + "/" + file
}

// statPath returns the path of /proc/<tid>/stat, built in one allocation.
func statPath(tid int) string {
	var buf [32]byte
	b := strconv.AppendInt(append(buf[:0], procfs.Mount+"/"...), int64(tid), 10)
	return string(append(b, "/stat"...))
}

// readFault is the fault check of a read of the file path names: one
// atomic load while no fault is armed, and only then the path.
func (s *Sim) readFault(path func() string) error {
	if !s.m.FaultsArmed() {
		return nil
	}
	return s.m.ReadFault(path())
}

// notExist is the error of a read or write of a file the model does not
// hold.
func notExist(path string) error { return fmt.Errorf("platform: %s: %w", path, fs.ErrNotExist) }

// group returns the cgroup of vCPU vcpu of the named VM, or nil.
func (s *Sim) group(vmName string, vcpu int) *sched.Group {
	inst := s.inst
	if inst == nil || inst.Name() != vmName || inst.Destroyed() {
		inst = s.mgr.Get(vmName)
		s.inst = inst
	}
	if inst == nil || vcpu < 0 || vcpu >= inst.Template().VCPUs {
		return nil
	}
	return inst.VCPUThread(vcpu).Group
}

// readGroup is a read of a file of a vCPU cgroup: the armed fault on the
// file's path first, then the group.
func (s *Sim) readGroup(vmName string, vcpu int, file string) (*sched.Group, error) {
	if err := s.readFault(func() string { return vcpuFile(vmName, vcpu, file) }); err != nil {
		return nil, err
	}
	if g := s.group(vmName, vcpu); g != nil {
		return g, nil
	}
	return nil, notExist(vcpuFile(vmName, vcpu, file))
}

// Node implements Host.
func (s *Sim) Node() NodeInfo {
	spec := s.m.Spec()
	return NodeInfo{Name: spec.Name, Cores: spec.Cores, MaxFreqMHz: spec.MaxMHz}
}

// ListVMs implements Host. The returned slice is reused by the next
// call; callers must not retain it.
func (s *Sim) ListVMs() ([]VMInfo, error) {
	out := s.vmScratch[:0]
	for _, inst := range s.mgr.List() {
		t := inst.Template()
		out = append(out, VMInfo{Name: inst.Name(), VCPUs: t.VCPUs, FreqMHz: t.FreqMHz})
	}
	s.vmScratch = out
	return out, nil
}

// UsageUs implements Host: the vCPU cgroup's usage_usec.
func (s *Sim) UsageUs(vmName string, vcpu int) (int64, error) {
	g, err := s.readGroup(vmName, vcpu, "cpu.stat")
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
		return notExist(vcpuFile(vmName, vcpu, "cpu.max"))
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
	g, err := s.readGroup(vmName, vcpu, "cpu.max")
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
		return notExist(vcpuFile(vmName, vcpu, "cpu.max"))
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

// ThreadID implements Host: the one thread of the vCPU cgroup, which the
// next LastCPU of its tid then finds without a lookup.
func (s *Sim) ThreadID(vmName string, vcpu int) (int, error) {
	g, err := s.readGroup(vmName, vcpu, "cgroup.threads")
	if err != nil {
		return 0, err
	}
	if n := len(g.Threads); n != 1 {
		return 0, fmt.Errorf("platform: vCPU cgroup %s/vcpu%d holds %d threads, want 1",
			vmName, vcpu, n)
	}
	s.thread = g.Threads[0]
	return s.thread.ID, nil
}

// LastCPU implements Host. A thread that never ran reports core 0, as
// its /proc/<tid>/stat does. The remembered thread is the one asked for
// while it has the tid and a group: the scheduler clears the group of a
// thread it removes, and never reuses a tid.
func (s *Sim) LastCPU(tid int) (int, error) {
	if err := s.readFault(func() string { return statPath(tid) }); err != nil {
		return 0, err
	}
	th := s.thread
	if th == nil || th.ID != tid || th.Group == nil {
		th = s.m.Sched.Thread(tid)
		s.thread = th
		if th == nil {
			return 0, notExist(statPath(tid))
		}
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
	if core < 0 || core >= s.m.DVFS.Cores() {
		return 0, fmt.Errorf("platform: core %d out of range", core)
	}
	if err := s.readFault(func() string { return sysfs.CurFreqPath(sysfs.Mount, core) }); err != nil {
		return 0, err
	}
	return s.m.DVFS.FreqMHz(core), nil
}
