package core

import (
	"fmt"

	"vfreq/internal/platform"
)

// RestoreReport describes what a Restore did with each VM it found in the
// checkpoint or on the live host.
type RestoreReport struct {
	// CheckpointStep is the step counter carried by the checkpoint; the
	// controller resumes from it.
	CheckpointStep int64
	// Adopted lists VMs restored from the checkpoint with their credit
	// wallets, caps and consumption histories intact.
	Adopted []string
	// ColdStarted lists VMs present on the host but absent from the
	// checkpoint (arrived while the controller was down), registered
	// fresh.
	ColdStarted []string
	// Dropped lists checkpoint VMs no longer present on the host.
	Dropped []string
	// Deferred lists live VMs whose registration failed (host read
	// error or invalid template); the next Step retries them through
	// the normal reconcile path.
	Deferred []string
	// AdoptedQuotas counts vCPUs whose live cpu.max quota differed from
	// what the controller would have written and was adopted as the
	// current cap instead of being overwritten blindly.
	AdoptedQuotas int
}

// String summarises the restore in one line.
func (r RestoreReport) String() string {
	return fmt.Sprintf("restored step %d: %d adopted, %d cold-started, %d dropped, %d deferred, %d quotas adopted",
		r.CheckpointStep, len(r.Adopted), len(r.ColdStarted), len(r.Dropped), len(r.Deferred), r.AdoptedQuotas)
}

// Restore rebuilds the controller state from a decoded checkpoint,
// revalidating everything against the live host:
//
//   - the node shape (cores, F_MAX) and control period must match the
//     checkpoint, otherwise the credits and guarantees are meaningless;
//   - VMs present in both checkpoint and host are adopted (see adopt) with
//     their credits, caps and histories, in checkpoint order so the
//     auction iteration order survives the restart;
//   - VMs only on the host are cold-started, adopting any cpu.max quota
//     a previous incarnation left behind (via the optional
//     platform.QuotaReader capability) instead of resetting it;
//   - VMs only in the checkpoint are dropped.
//
// Restore is only valid on a fresh controller that has not stepped yet.
func (c *Controller) Restore(s Snapshot) (RestoreReport, error) {
	var rr RestoreReport
	if c.steps > 0 || len(c.order) > 0 {
		return rr, fmt.Errorf("core: restore into a used controller (step %d, %d VMs)",
			c.steps, len(c.order))
	}
	if s.Version != SnapshotVersion {
		return rr, fmt.Errorf("core: checkpoint version %d, want %d", s.Version, SnapshotVersion)
	}
	if s.Cores != c.node.Cores || s.MaxFreqMHz != c.node.MaxFreqMHz {
		return rr, fmt.Errorf("core: checkpoint node shape %d cores @ %d MHz, live host %d cores @ %d MHz",
			s.Cores, s.MaxFreqMHz, c.node.Cores, c.node.MaxFreqMHz)
	}
	if s.Node != "" && s.Node != c.node.Name {
		return rr, fmt.Errorf("core: checkpoint from node %q, live host is %q", s.Node, c.node.Name)
	}
	if s.PeriodUs != c.cfg.PeriodUs {
		return rr, fmt.Errorf("core: checkpoint period %d us, configured %d us", s.PeriodUs, c.cfg.PeriodUs)
	}
	infos, err := c.host.ListVMs()
	if err != nil {
		return rr, fmt.Errorf("core: listing VMs for restore: %w", err)
	}
	// live holds the host's VMs not handled yet; each pass takes its own
	// out, so Deferred comes out in checkpoint-then-host order.
	live := map[string]platform.VMInfo{}
	for _, info := range infos {
		live[info.Name] = info
	}
	rr.CheckpointStep = s.Step
	rep := &StepReport{} // scratch for retry accounting during restore reads

	for _, vs := range s.VMs {
		info, ok := live[vs.Name]
		if !ok {
			rr.Dropped = append(rr.Dropped, vs.Name)
			continue
		}
		delete(live, vs.Name)
		// Same host, same cgroups: the usage counters kept counting
		// while the controller was down.
		st, quotas, err := c.adopt(rep, info, vs, false)
		if err != nil {
			rr.Deferred = append(rr.Deferred, vs.Name)
			continue
		}
		c.track(st)
		rr.Adopted = append(rr.Adopted, vs.Name)
		rr.AdoptedQuotas += quotas
	}

	// Cold-start VMs that arrived while the controller was down.
	for _, info := range infos {
		if _, ok := live[info.Name]; !ok {
			continue
		}
		delete(live, info.Name)
		st, _, err := c.adopt(rep, info, VMSnapshot{}, false)
		if err != nil {
			rr.Deferred = append(rr.Deferred, info.Name)
			continue
		}
		for _, v := range st.VCPUs {
			if c.adoptQuota(v) {
				rr.AdoptedQuotas++
			}
		}
		c.track(st)
		rr.ColdStarted = append(rr.ColdStarted, info.Name)
	}
	c.steps = s.Step
	return rr, nil
}

// adopt builds the state of one VM from a checkpoint entry and the
// VM's live template — the one primitive behind Restore (every
// checkpointed VM), AdoptVM (the one migrated VM) and cold registration
// (vs empty: nothing carried, every vCPU registered fresh). It touches
// nothing on the controller; the caller tracks the result. A failure is
// atomic per VM and comes back as a Fault naming the vCPU.
//
//   - The guarantee is recomputed from the live template (Eq. 2 is
//     node-relative) and the wallet re-clamped under it.
//   - The breaker resumes mid-window: a quarantined VM stays quarantined
//     for its remaining OpenLeft steps and a half-open one probes on its
//     next Step, so a restored twin re-admits the VM on the same step
//     the dead incarnation would have.
//   - A quarantined VM is rebuilt without reading the host: its breaker
//     is open, so nobody was reading it — and its reads are likely still
//     failing, which must not fail the adoption. On fresh counters its
//     cgroups are new and unlimited, and apply skips its degraded vCPUs
//     for the whole quarantine, so adoption writes each held quota once
//     (holdQuota).
//   - Every other vCPU re-reads its usage baseline live, so the first
//     delta spans live readings only, and reconciles its cap with the
//     cpu.max in force (adoptQuota; adoptedQuotas counts the wins).
//   - vCPUs the template has beyond the snapshot (the VM grew meanwhile)
//     register fresh; the structs are new, so the last-applied cache is
//     invalid and the first apply writes through.
//
// freshCounters is what the caller knows about the cgroups under a
// quarantined VM, whose baseline cannot be re-read: false on the host
// that took the snapshot (the counters kept counting; the checkpointed
// baseline stands and the first probe computes a clamped multi-period
// delta, as the dead incarnation would have), true on a migration target
// (the counters restarted; the baseline is zero, which the first probe
// treats like a counter reset).
func (c *Controller) adopt(rep *StepReport, info platform.VMInfo, vs VMSnapshot, freshCounters bool) (st *VMState, adoptedQuotas int, err error) {
	if err := c.validFreq(info.FreqMHz); err != nil {
		return nil, 0, Fault{VM: info.Name, VCPU: -1, Stage: "sync", Op: "template", Err: err}
	}
	st = &VMState{Info: info, GuaranteeUs: c.guarantee(info.FreqMHz), CreditUs: vs.CreditUs,
		Breaker: BreakerState{
			State:       BreakerPhase(vs.Breaker),
			FaultStreak: vs.BreakerFaultStreak,
			OpenLeft:    vs.BreakerOpenLeft,
		}}
	for j := 0; j < info.VCPUs; j++ {
		var v *VCPUState
		switch {
		case j >= len(vs.VCPUs):
			v, err = c.newVCPUState(rep, st, j)
		case st.Breaker.State == BreakerOpen:
			v = c.snapshotVCPU(st, vs.VCPUs[j])
			if freshCounters {
				v.PrevUsageUs = 0
				c.holdQuota(v)
			}
		default:
			v = c.snapshotVCPU(st, vs.VCPUs[j])
			if v.PrevUsageUs, err = c.retryUsage(rep, info.Name, j); err == nil && c.adoptQuota(v) {
				adoptedQuotas++
			}
		}
		if err != nil {
			return nil, 0, Fault{VM: info.Name, VCPU: j, Stage: "sync", Op: opUsage.String(), Err: err}
		}
		st.VCPUs = append(st.VCPUs, v)
	}
	c.clampCredit(st)
	return st, adoptedQuotas, nil
}

// track enters a VM built by adopt into the bookkeeping, last in
// registration order, marked adopted until a Step's stages bound it.
// ForgetVM is its inverse.
func (c *Controller) track(st *VMState) {
	st.adopted = true
	c.vms[st.Info.Name] = st
	c.order = append(c.order, st)
}

// snapshotVCPU rebuilds one vCPU of st purely from its checkpoint entry,
// with no host interaction.
func (c *Controller) snapshotVCPU(st *VMState, vs VCPUSnapshot) *VCPUState {
	v := &VCPUState{
		VM:          st.Info.Name,
		Index:       vs.Index,
		vm:          st,
		Hist:        NewHistory(c.cfg.HistoryLen),
		PrevUsageUs: vs.PrevUsageUs,
		LastU:       c.clampCycles(vs.ConsumedUs),
		CapUs:       c.clampCycles(vs.CapUs),
		EstUs:       c.clampCycles(vs.EstimateUs),
		TID:         vs.TID,
		LastCore:    vs.LastCore,
		FreqMHz:     vs.VirtFreqMHz,
		Degraded:    vs.Degraded,
		FailedSteps: vs.FailedSteps,
		warm:        vs.Warm,
	}
	for _, u := range vs.Hist {
		v.Hist.Push(c.clampCycles(u))
	}
	return v
}

// clampCycles bounds a per-period cycle count to [0, PeriodUs] — a vCPU
// is one thread and can never consume more than one core-period.
func (c *Controller) clampCycles(u int64) int64 {
	if u < 0 {
		return 0
	}
	if u > c.cfg.PeriodUs {
		return c.cfg.PeriodUs
	}
	return u
}

// holdQuota writes a quarantined vCPU's held cap into its new cgroup on
// a migration target, once and best-effort: a failed write leaves the
// last-applied cache invalid, so the first apply after the quarantine
// writes through.
func (c *Controller) holdQuota(v *VCPUState) {
	if !c.cfg.ControlEnabled {
		return
	}
	quota := c.quotaFor(v)
	if c.host.SetMax(v.VM, v.Index, quota, c.cfg.CgroupPeriodUs) == nil {
		v.appliedQuotaUs, v.appliedQuotaOK = quota, true
	}
}

// adoptQuota reconciles a vCPU's cap with the cpu.max quota live in its
// cgroup, via the optional platform.QuotaReader capability. When the live
// quota differs from the quota this cap would produce — a previous
// incarnation with different tuning, or an operator's manual write — the
// live value is adopted as the current cap rather than silently
// overwritten at the next apply. An unlimited cgroup ("max") and any
// read failure leave the cap untouched; reconciliation is best-effort.
func (c *Controller) adoptQuota(v *VCPUState) bool {
	qr, ok := c.host.(platform.QuotaReader)
	if !ok || !c.cfg.ControlEnabled {
		return false
	}
	quota, period, err := qr.ReadMax(v.VM, v.Index)
	if err != nil || period <= 0 || quota == platform.NoQuota || quota < 0 {
		return false
	}
	if quota == c.quotaFor(v) && period == c.cfg.CgroupPeriodUs {
		return false
	}
	v.CapUs = c.clampCycles(quota * c.cfg.PeriodUs / period)
	return true
}
