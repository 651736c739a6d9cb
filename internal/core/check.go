package core

import (
	"bytes"
	"fmt"

	"vfreq/internal/platform"
)

// Check states the controller's invariants once and returns the first
// one the current state breaks, or nil. Tests, soaks and harnesses call
// it between Steps instead of restating the invariants; it changes
// nothing and is never on the Step path. DESIGN.md §12 argues each
// clause.
//
//   - The VM order and the name index hold the same VMs, and each vCPU
//     points at the VM that lists it and carries that VM's name.
//   - Every cap and every estimate is in [0, PeriodUs].
//   - Every wallet is in [0, CreditCapPeriods × C_i × vCPUs] (no upper
//     bound when CreditCapPeriods is 0).
//   - Eq. 6 as the exact inequality: Σcaps ≤ CapacityUs(), or the market
//     was empty and no healthy vCPU's cap exceeds its Eq. 5 base
//     min(e, C_i). A non-empty market is never oversold, so Σcaps passes
//     capacity only through caps degraded vCPUs hold from an earlier
//     market.
//   - With control on, every healthy vCPU's cgroup holds quotaFor(cap),
//     read through the host's platform.QuotaReader (none, no clause)
//     beneath any decorator exposing Inner (platform.FaultyHost), so an
//     armed fault plan neither fails the read nor moves its draws.
//   - The checkpoint encodes, decodes and re-encodes to the same bytes.
//
// Two exceptions, both read from controller state. A VM adopted
// (AdoptVM, Restore) since the last Step that ran its stages was bounded
// against another market, and its cgroups hold what adoption found: it
// stays out of the Eq. 6 sum and the cgroup clause until a Step bounds
// it here. After a Step that failed whole (LastReport().Step > Steps():
// the VM list was unreachable) nothing was written and the host may have
// moved under the stale listing, so the cgroup clause is skipped.
func (c *Controller) Check() error {
	if len(c.vms) != len(c.order) {
		return fmt.Errorf("core: check: name index holds %d VMs, order %d", len(c.vms), len(c.order))
	}
	var sum int64
	var above *VCPUState // the first healthy vCPU above its Eq. 5 base
	for _, st := range c.order {
		name := st.Info.Name
		if c.vms[name] != st {
			return fmt.Errorf("core: check: name index maps %s to another VM than order holds", name)
		}
		if st.CreditUs < 0 {
			return fmt.Errorf("core: check: %s wallet %d is negative", name, st.CreditUs)
		}
		if bound := c.cfg.CreditCapPeriods * st.GuaranteeUs * int64(len(st.VCPUs)); c.cfg.CreditCapPeriods > 0 && st.CreditUs > bound {
			return fmt.Errorf("core: check: %s wallet %d above its credit cap %d", name, st.CreditUs, bound)
		}
		for _, v := range st.VCPUs {
			if v.vm != st || v.VM != name {
				return fmt.Errorf("core: check: %s/vcpu%d is owned by another VM (%q)", name, v.Index, v.VM)
			}
			if v.CapUs < 0 || v.CapUs > c.cfg.PeriodUs {
				return fmt.Errorf("core: check: %s/vcpu%d cap %d outside [0, period]", name, v.Index, v.CapUs)
			}
			if v.EstUs < 0 || v.EstUs > c.cfg.PeriodUs {
				return fmt.Errorf("core: check: %s/vcpu%d estimate %d outside [0, period]", name, v.Index, v.EstUs)
			}
			if st.adopted {
				continue
			}
			sum += v.CapUs
			if above == nil && !v.Degraded && v.CapUs > min(v.EstUs, st.GuaranteeUs) {
				above = v
			}
		}
	}
	if sum > c.CapacityUs() && above != nil {
		return fmt.Errorf("core: check: Σcaps %d above capacity %d (Eq. 6), yet healthy %s/vcpu%d holds %d, estimate %d, guarantee %d",
			sum, c.CapacityUs(), above.VM, above.Index, above.CapUs, above.EstUs, above.vm.GuaranteeUs)
	}
	if err := c.checkQuotas(); err != nil {
		return err
	}
	raw, err := c.Snapshot().JSON()
	if err != nil {
		return fmt.Errorf("core: check: encoding checkpoint: %w", err)
	}
	snap, err := DecodeSnapshot(raw)
	if err != nil {
		return fmt.Errorf("core: check: checkpoint rejected by its own decoder: %w", err)
	}
	raw2, err := snap.JSON()
	if err != nil {
		return fmt.Errorf("core: check: re-encoding checkpoint: %w", err)
	}
	if !bytes.Equal(raw, raw2) {
		return fmt.Errorf("core: check: checkpoint round trip not bit-identical")
	}
	return nil
}

// decorator is a Host wrapping another, as platform.FaultyHost does.
type decorator interface{ Inner() platform.Host }

// checkQuotas is Check's cgroup clause.
func (c *Controller) checkQuotas() error {
	h := c.host
	for w, ok := h.(decorator); ok; w, ok = h.(decorator) {
		h = w.Inner()
	}
	qr, ok := h.(platform.QuotaReader)
	if !ok || !c.cfg.ControlEnabled || c.report.Step > c.steps {
		return nil
	}
	for _, st := range c.order {
		if st.adopted {
			continue
		}
		for _, v := range st.VCPUs {
			if v.Degraded {
				continue
			}
			quota, period, err := qr.ReadMax(v.VM, v.Index)
			if err != nil {
				return fmt.Errorf("core: check: reading %s/vcpu%d cpu.max: %w", v.VM, v.Index, err)
			}
			if want := c.quotaFor(v); quota != want || period != c.cfg.CgroupPeriodUs {
				return fmt.Errorf("core: check: %s/vcpu%d cgroup holds quota %d/%d, cap %d wants %d/%d",
					v.VM, v.Index, quota, period, v.CapUs, want, c.cfg.CgroupPeriodUs)
			}
		}
	}
	return nil
}
