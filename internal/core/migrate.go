package core

import (
	"fmt"
	"slices"

	"vfreq/internal/platform"
)

// ExportVM captures one VM's controller state as a checkpoint
// VMSnapshot: the credit wallet (Eq. 4), the per-vCPU consumption
// history rings (Eq. 3), caps, estimates and the circuit-breaker phase
// with its counters. It is the unit of state a live migration hands to
// the target node's AdoptVM; the export reads nothing from the host and
// leaves this controller untouched, so it works even while the source
// node is failing.
func (c *Controller) ExportVM(name string) (VMSnapshot, error) {
	st, ok := c.vms[name]
	if !ok {
		return VMSnapshot{}, fmt.Errorf("core: no VM %q to export", name)
	}
	return vmSnapshot(st), nil
}

// AdoptVM threads an exported snapshot into this controller — the
// target-side half of a migration, valid on a running controller (the
// node keeps stepping its other VMs throughout). The VM must already be
// provisioned on this host and not yet tracked. The snapshot is validated
// as DecodeSnapshot validates each VM, then rebuilt by the same adopt
// primitive Restore runs per VM: guarantee from the live template,
// wallet re-clamped, histories and breaker carried verbatim, baselines
// re-read live (the target's counters start at zero, so the first
// monitor delta spans target readings only), quotas written through by
// the first apply. Until that apply the VM's new cgroups are unlimited:
// one unthrottled period per migration. The one thing this caller knows
// that Restore's does not: the cgroups are new here, so a quarantined VM
// — adopted without a host read — starts from a zero baseline, and its
// first half-open probe computes a clamped full-period delta, exactly as
// a counter reset would. Its held quotas are written at adoption, since
// no apply reaches it before the quarantine ends.
//
// On error the controller is unchanged; the caller can fall back to
// letting the next Step register the VM cold (fresh wallet, no history).
func (c *Controller) AdoptVM(snap VMSnapshot) error {
	if err := validateVMSnapshot(snap); err != nil {
		return err
	}
	if _, ok := c.vms[snap.Name]; ok {
		return fmt.Errorf("core: VM %q already tracked, cannot adopt", snap.Name)
	}
	infos, err := c.host.ListVMs()
	if err != nil {
		return fmt.Errorf("core: listing VMs for adoption: %w", err)
	}
	var info platform.VMInfo
	found := false
	for _, i := range infos {
		if i.Name == snap.Name {
			info, found = i, true
			break
		}
	}
	if !found {
		return fmt.Errorf("core: VM %q not on this host; provision before adopting", snap.Name)
	}
	st, _, err := c.adopt(&StepReport{}, info, snap, true)
	if err != nil {
		return err
	}
	c.track(st)
	return nil
}

// ForgetVM drops a VM from the controller's bookkeeping without touching
// the host — the source-side epilogue of a migration, called after the
// VM's cgroups were already destroyed on this node, so there is no quota
// left to release (the departure pass of syncVMs, whose cgroup paths may
// be reused, clears the quotas before it untracks). It reports whether
// the VM was tracked.
func (c *Controller) ForgetVM(name string) bool {
	st, ok := c.vms[name]
	if !ok {
		return false
	}
	delete(c.vms, name)
	c.order = slices.DeleteFunc(c.order, func(o *VMState) bool { return o == st })
	return true
}
