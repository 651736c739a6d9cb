// Package platform defines the narrow host interface the virtual-
// frequency controller consumes, with two implementations: a simulated
// backend reading the emulated cgroup/proc/sys files of internal/host,
// and a real-Linux backend reading the same files under /sys and /proc.
//
// Everything the controller knows about the world flows through this
// interface, exactly mirroring what the paper's C++ implementation reads
// and writes on a KVM host.
package platform

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
	// (platform.Linux: never past the next call after any failed read or
	// write). A VM that leaves during the enumeration is left out of the
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
	// burst disables bursting.
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
	// (scaling_cur_freq).
	CoreFreqMHz(core int) (int64, error)
}

// NoQuota is the quota value ReadMax returns for an unlimited cgroup
// ("max" in cpu.max).
const NoQuota = int64(-1)

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
// one vCPU of the batch's VM, plus the per-entry outcome. Err is set by
// the host implementation — nil when the write landed, the write error
// otherwise — so a caller can tell exactly which vCPUs of a partially
// failed batch still hold their previous quota.
type VCPUQuota struct {
	VCPU     int
	QuotaUs  int64
	PeriodUs int64
	Err      error
}

// BatchQuotaWriter is an optional Host capability: writing the cpu.max
// quotas of several vCPUs of one VM in a single call. Implementations
// must attempt every entry (a failed write never aborts the rest),
// record the per-entry outcome in quotas[i].Err, and return a non-nil
// error iff at least one entry failed. The controller's apply stage hands
// it the dirty quotas of one VM per call.
type BatchQuotaWriter interface {
	BatchSetMax(vm string, quotas []VCPUQuota) error
}

// BatchWriter returns h's own BatchQuotaWriter capability, or the serial
// adapter over h.SetMax when it has none, so a caller writes batches to
// any host through one code path.
func BatchWriter(h Host) BatchQuotaWriter {
	if bw, ok := h.(BatchQuotaWriter); ok {
		return bw
	}
	return serialBatch{h}
}

// serialBatch is the BatchQuotaWriter contract over plain SetMax: one
// write per entry, every entry attempted, the per-entry outcome recorded.
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
