// Package platform defines the narrow host interface the virtual-
// frequency controller consumes, with two implementations: a real-Linux
// backend reading and writing the cgroup, proc and sys files under /sys
// and /proc, and a simulated backend answering the same calls from the
// scheduler, VM and DVFS model of internal/host.
//
// Everything the controller knows about the world flows through this
// interface, exactly mirroring what the paper's C++ implementation reads
// and writes on a KVM host.
package platform

import "vfreq/internal/sched"

// NodeInfo describes the physical machine.
type NodeInfo struct {
	Name       string
	Cores      int   // logical CPUs (k_n^CPU)
	MaxFreqMHz int64 // all-core sustained maximum (F_n^MAX)
}

// VMInfo describes one hosted VM instance as libvirt would report it.
type VMInfo struct {
	Name    string
	VCPUs   int
	FreqMHz int64 // virtual frequency from the VM template (F_{V(i)})
}

// Host is the controller's view of the machine. A Host is driven by one
// goroutine, the controller that owns it: implementations keep caches,
// scratch buffers and seeded generators without locking, and a caller
// that hands a Host to another goroutine (the cluster's step pool does,
// between Steps) must order the hand-off itself.
type Host interface {
	// Node returns the static machine description.
	Node() NodeInfo
	// ListVMs enumerates the hosted VM instances. An implementation may
	// answer from its previous enumeration while it can tell that nothing
	// arrived, left or changed its vCPU count; one that cannot tell for
	// some event must say for how long the old answer can outlive it
	// (platform.Linux, which the kernel tells of every change through an
	// inotify watch: a change the watch lost outlives it until the next
	// call after any failed read or write). A VM that leaves during the enumeration is left out of the
	// result; an error means the host itself could not be listed.
	ListVMs() ([]VMInfo, error)
	// UsageUs returns the cumulative CPU time of vCPU j of the named
	// VM, in microseconds (cpu.stat usage_usec).
	UsageUs(vm string, vcpu int) (int64, error)
	// SetMax writes the vCPU's cgroup cpu.max quota.
	SetMax(vm string, vcpu int, quotaUs, periodUs int64) error
	// ClearMax removes the vCPU's quota ("max").
	ClearMax(vm string, vcpu int) error
	// SetBurst writes the vCPU's cgroup cpu.max.burst budget. A zero
	// burst disables bursting. A host without the file fails: a kernel
	// before 5.14, and Sim, which models none and answers with an error
	// wrapping fs.ErrNotExist.
	//
	// Deprecated: unused by the controller, which writes only cpu.max;
	// kept only until benchmark/ stops requiring it of the hosts it
	// wraps.
	SetBurst(vm string, vcpu int, burstUs int64) error
	// ThreadID returns the kernel tid of the vCPU thread
	// (cgroup.threads; KVM vCPU cgroups hold exactly one thread). The tid
	// may be the one found by an earlier call: a thread replaced since is
	// then reported until LastCPU of the old tid fails, which it does on
	// the first call after the thread is gone. The controller pays one
	// degraded period for that vCPU — and nothing else, because the tid,
	// the last core and the core's frequency feed only the reported
	// VCPUState.FreqMHz: no estimate, cap or credit reads them.
	ThreadID(vm string, vcpu int) (int, error)
	// LastCPU returns the core the thread last ran on
	// (/proc/<tid>/stat field 39).
	LastCPU(tid int) (int, error)
	// CoreFreqMHz returns the current frequency of a core
	// (scaling_cur_freq). An implementation may answer from a reading
	// taken since the last ListVMs call, so the answer is at most one
	// period stale and is read afresh after the next ListVMs
	// (platform.Linux reads each core once per ListVMs call). A failed
	// read is not remembered. Like the tid, the frequency feeds only the
	// reported VCPUState.FreqMHz.
	CoreFreqMHz(core int) (int64, error)
}

// NoQuota is the quota value ReadMax returns for an unlimited cgroup
// ("max" in cpu.max), the scheduler's own.
const NoQuota = sched.NoQuota

// Topology is an optional Host capability: the NUMA placement of the
// machine's logical CPUs, read from /sys/devices/system/node. The
// controller does not consume it (its stages are serial over the whole
// node); the interface stays for the benchmark's host decorator, which
// forwards it.
type Topology interface {
	// CoreNodes returns a slice mapping each logical CPU index to its
	// NUMA node id. The result must be stable across calls; callers
	// may cache and share it without copying.
	CoreNodes() ([]int, error)
}

// VCPUQuota is one entry of a BatchSetMax call: the quota to write for
// one vCPU of the batch's VM, plus the per-entry outcome in Err.
//
// Deprecated: unused by the controller, which writes each quota with
// SetMax; kept only until benchmark/ stops requiring BatchQuotaWriter.
type VCPUQuota struct {
	VCPU     int
	QuotaUs  int64
	PeriodUs int64
	Err      error
}

// BatchQuotaWriter writes the cpu.max quotas of several vCPUs of one VM
// in a single call, attempting every entry, recording each outcome in
// quotas[i].Err and returning a non-nil error iff an entry failed.
//
// Deprecated: unused by the controller, which writes each quota with
// SetMax; kept only until benchmark/ stops requiring it of the hosts it
// wraps.
type BatchQuotaWriter interface {
	BatchSetMax(vm string, quotas []VCPUQuota) error
}

// serialBatch is the BatchQuotaWriter contract over plain SetMax: one
// write per entry, every entry attempted, the per-entry outcome recorded.
//
// Deprecated: serves only Sim.BatchSetMax and Linux.BatchSetMax.
type serialBatch struct{ Host }

func (s serialBatch) BatchSetMax(vm string, quotas []VCPUQuota) error {
	var firstErr error
	for i := range quotas {
		q := &quotas[i]
		q.Err = s.SetMax(vm, q.VCPU, q.QuotaUs, q.PeriodUs)
		if q.Err != nil && firstErr == nil {
			firstErr = q.Err
		}
	}
	return firstErr
}

// QuotaReader is an optional Host capability: reading back the cgroup
// cpu.max quota currently in force for a vCPU. The controller uses it on
// restart to adopt quotas it did not write this incarnation (cold-start
// adoption) instead of blindly resetting them. quotaUs is NoQuota when
// the cgroup is unlimited.
type QuotaReader interface {
	ReadMax(vm string, vcpu int) (quotaUs, periodUs int64, err error)
}
