package platform

import (
	"fmt"
	"strconv"
	"strings"

	"vfreq/internal/cgroupfs"
	"vfreq/internal/procfs"
	"vfreq/internal/sysfs"
	"vfreq/internal/vm"
)

// SimV1 drives the simulated machine through the cgroup v1 file dialect
// (cpu.cfs_quota_us / cpu.cfs_period_us / cpuacct.usage / tasks),
// demonstrating the paper's claim that "the controller works on both
// versions" of cgroups. The controller code is unchanged; only the file
// names and units (cpuacct.usage is nanoseconds) differ.
type SimV1 struct {
	mgr   *vm.Manager
	mount string
}

// V1Mount is where NewSimV1 mounts the v1 hierarchy.
const V1Mount = "/sys/fs/cgroup-v1/cpu"

// NewSimV1 wraps a VM manager, enabling the v1 view on its machine. It
// must be called once per machine.
func NewSimV1(mgr *vm.Manager) (*SimV1, error) {
	if err := mgr.Machine().Cgroups.EnableV1(V1Mount); err != nil {
		return nil, err
	}
	return &SimV1{mgr: mgr, mount: V1Mount}, nil
}

// Node implements Host.
func (s *SimV1) Node() NodeInfo {
	spec := s.mgr.Machine().Spec()
	return NodeInfo{Name: spec.Name, Cores: spec.Cores, MaxFreqMHz: spec.MaxMHz}
}

// ListVMs implements Host.
func (s *SimV1) ListVMs() ([]VMInfo, error) {
	insts := s.mgr.List()
	out := make([]VMInfo, len(insts))
	for i, inst := range insts {
		t := inst.Template()
		out[i] = VMInfo{Name: inst.Name(), VCPUs: t.VCPUs, FreqMHz: t.FreqMHz}
	}
	return out, nil
}

func (s *SimV1) vcpuPath(vmName string, vcpu int) string {
	return s.mount + "/" + vm.VCPUCgroup(vmName, vcpu)
}

// UsageUs implements Host: cpuacct.usage reports nanoseconds in v1.
func (s *SimV1) UsageUs(vmName string, vcpu int) (int64, error) {
	content, err := s.mgr.Machine().FS.ReadFile(s.vcpuPath(vmName, vcpu) + "/cpuacct.usage")
	if err != nil {
		return 0, fmt.Errorf("platform: reading cpuacct.usage of %s/vcpu%d: %w", vmName, vcpu, err)
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(content), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("platform: bad cpuacct.usage %q", content)
	}
	return ns / 1000, nil
}

// SetMax implements Host via the two v1 files.
func (s *SimV1) SetMax(vmName string, vcpu int, quotaUs, periodUs int64) error {
	fs := s.mgr.Machine().FS
	base := s.vcpuPath(vmName, vcpu)
	if err := fs.WriteFile(base+"/cpu.cfs_period_us", fmt.Sprint(periodUs)); err != nil {
		return err
	}
	return fs.WriteFile(base+"/cpu.cfs_quota_us", fmt.Sprint(quotaUs))
}

// ClearMax implements Host: -1 means unlimited in v1.
func (s *SimV1) ClearMax(vmName string, vcpu int) error {
	return s.mgr.Machine().FS.WriteFile(s.vcpuPath(vmName, vcpu)+"/cpu.cfs_quota_us", "-1")
}

// SetBurst implements Host. cgroup v1 has no burst support; requesting a
// zero burst is a no-op, anything else is an error, as on a real host.
func (s *SimV1) SetBurst(vmName string, vcpu int, burstUs int64) error {
	if burstUs == 0 {
		return nil
	}
	return fmt.Errorf("platform: cgroup v1 has no cpu.max.burst")
}

// ThreadID implements Host via the v1 tasks file.
func (s *SimV1) ThreadID(vmName string, vcpu int) (int, error) {
	content, err := s.mgr.Machine().FS.ReadFile(s.vcpuPath(vmName, vcpu) + "/tasks")
	if err != nil {
		return 0, err
	}
	ids, err := cgroupfs.ParseTIDs(content)
	if err != nil {
		return 0, err
	}
	if len(ids) != 1 {
		return 0, fmt.Errorf("platform: vCPU cgroup holds %d tasks, want 1", len(ids))
	}
	return ids[0], nil
}

// LastCPU implements Host.
func (s *SimV1) LastCPU(tid int) (int, error) {
	line, err := s.mgr.Machine().FS.ReadFile(fmt.Sprintf("%s/%d/stat", procfs.Mount, tid))
	if err != nil {
		return 0, err
	}
	return procfs.ParseStatLastCPU(line)
}

// CoreFreqMHz implements Host.
func (s *SimV1) CoreFreqMHz(core int) (int64, error) {
	content, err := s.mgr.Machine().FS.ReadFile(sysfs.CurFreqPath(sysfs.Mount, core))
	if err != nil {
		return 0, err
	}
	khz, err := sysfs.ParseKHz(content)
	if err != nil {
		return 0, err
	}
	return khz / 1000, nil
}
