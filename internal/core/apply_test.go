package core

import (
	"errors"
	"fmt"
	"testing"

	"vfreq/internal/platform"
)

// reportSummary renders the deterministic part of a StepReport (i.e.
// everything except wall-clock timings).
func reportSummary(rep StepReport) string {
	s := fmt.Sprintf("%s retries=%d recovered=%d dropped=%d", rep.String(),
		rep.Retries, rep.Recovered, rep.FaultsDropped)
	for _, f := range rep.Faults {
		s += "\n  " + f.Error()
	}
	return s
}

// TestApplySkipsCleanQuotas is the incremental-apply acceptance test:
// once the estimates stabilise, a steady-state step must issue zero
// SetMax writes, and a changed estimate must write again.
func TestApplySkipsCleanQuotas(t *testing.T) {
	h := newFakeHost()
	h.AddVM("a", 2, 1200)
	ctrl := mustController(t, h, DefaultConfig())
	warmUp(t, ctrl, h, 8, 400_000)

	applied := h.SetMaxCalls
	warmUp(t, ctrl, h, 5, 400_000)
	if h.SetMaxCalls != applied {
		t.Fatalf("steady state issued %d writes over 5 steps, want 0", h.SetMaxCalls-applied)
	}

	// A consumption spike dirties a/0's quota; a/1 stays clean.
	before := quotaOf(h, "a", 0)
	h.Consume("a", 0, 800_000)
	h.Consume("a", 1, 400_000)
	if err := ctrl.Step(); err != nil {
		t.Fatal(err)
	}
	if h.SetMaxCalls != applied+1 {
		t.Fatalf("spike step issued %d writes, want exactly 1", h.SetMaxCalls-applied)
	}
	if after := quotaOf(h, "a", 0); after == before {
		t.Fatalf("a/0 quota unchanged after spike: %v", after)
	}
}

// TestApplySkipsCleanQuotasAtSetMax is the same acceptance counted at
// the fault wrapper's SetMax site (no plan armed), which sees every call
// the controller makes: a steady-state step must reach the site not at
// all, and a single dirtied vCPU exactly once, landing as one write.
func TestApplySkipsCleanQuotasAtSetMax(t *testing.T) {
	h := newFakeHost()
	h.AddVM("a", 2, 1200)
	fh := platform.WithFaults(h, 1)
	ctrl := mustController(t, fh, DefaultConfig())
	warmUp(t, ctrl, h, 8, 400_000)

	calls, applied := fh.Calls(platform.SiteSetMax), h.SetMaxCalls
	warmUp(t, ctrl, h, 5, 400_000)
	if fh.Calls(platform.SiteSetMax) != calls || h.SetMaxCalls != applied {
		t.Fatalf("steady state made %d SetMax calls / %d writes over 5 steps, want 0",
			fh.Calls(platform.SiteSetMax)-calls, h.SetMaxCalls-applied)
	}

	h.Consume("a", 0, 800_000)
	h.Consume("a", 1, 400_000)
	if err := ctrl.Step(); err != nil {
		t.Fatal(err)
	}
	if fh.Calls(platform.SiteSetMax) != calls+1 || h.SetMaxCalls != applied+1 {
		t.Fatalf("spike step made %d SetMax calls and %d writes, want 1 and 1",
			fh.Calls(platform.SiteSetMax)-calls, h.SetMaxCalls-applied)
	}
}

// TestApplyPartialFailure injects a write fault on one vCPU of a VM
// whose every quota is dirty: that vCPU alone degrades with an
// apply/setmax fault and its dirty flag survives (the cache is
// invalidated), so the quota is rewritten on the next clean step even
// though its cap never changed; the VM's other writes land normally.
func TestApplyPartialFailure(t *testing.T) {
	inner := newFakeHost()
	inner.AddVM("a", 3, 1200)
	fh := platform.WithFaults(inner, 1)
	cfg := DefaultConfig()
	cfg.HostRetries = 0
	ctrl := mustController(t, fh, cfg)
	warmUp(t, ctrl, inner, 8, 400_000)

	fh.MustPlan(platform.SiteSetMax, platform.FaultPlan{
		Persistent: true,
		Match:      func(vm string, vcpu int) bool { return vcpu == 1 },
	})
	// Spike every vCPU so every quota is dirty.
	for j := 0; j < 3; j++ {
		inner.Consume("a", j, 800_000)
	}
	if err := ctrl.Step(); err != nil {
		t.Fatal(err)
	}
	rep := ctrl.LastReport()
	if rep.DegradedVCPUs != 1 {
		t.Fatalf("degraded vCPUs = %d, want 1: %s", rep.DegradedVCPUs, rep.String())
	}
	found := false
	for _, f := range rep.Faults {
		if f.Stage == "apply" && f.Op == "setmax" && f.VM == "a" && f.VCPU == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no apply/setmax fault for a/1 in report: %s", reportSummary(rep))
	}
	// The healthy writes of the same VM landed, before and after a/1.
	for _, j := range []int{0, 2} {
		want := ctrl.VM("a").VCPUs[j].CapUs * cfg.CgroupPeriodUs / cfg.PeriodUs
		if got := quotaOf(inner, "a", j); got[0] != want {
			t.Fatalf("a/%d quota = %v, want %d", j, got, want)
		}
	}

	// Plan cleared: the next step recovers a/1 and must rewrite its
	// quota — the failed write dropped the cache, so it is still dirty
	// even though the cap is unchanged.
	fh.Clear(platform.SiteSetMax)
	warmUp(t, ctrl, inner, 1, 800_000)
	if ctrl.VM("a").VCPUs[1].Degraded {
		t.Fatal("a/1 still degraded after the plan cleared")
	}
	wantQ := ctrl.VM("a").VCPUs[1].CapUs * cfg.CgroupPeriodUs / cfg.PeriodUs
	if fresh := quotaOf(inner, "a", 1); fresh[0] != wantQ {
		t.Fatalf("a/1 quota = %v, want %d", fresh, wantQ)
	}
}

// TestApplySlowWriteDegradesOnlyItself arms a call budget and a write
// delay far beyond it on one vCPU: that write comes back ErrCallBudget,
// unretried, and degrades its vCPU alone; the VM's other writes are timed
// on their own and land.
func TestApplySlowWriteDegradesOnlyItself(t *testing.T) {
	inner := newFakeHost()
	inner.AddVM("a", 3, 1200)
	fh := platform.WithFaults(inner, 1)
	cfg := DefaultConfig()
	cfg.CallBudgetUs = 20_000
	ctrl := mustController(t, fh, cfg)
	warmUp(t, ctrl, inner, 8, 400_000)

	fh.MustPlan(platform.SiteSetMax, platform.FaultPlan{
		DelayRate: 1,
		DelayUs:   100_000,
		Match:     func(vm string, vcpu int) bool { return vcpu == 1 },
	})
	for j := 0; j < 3; j++ {
		inner.Consume("a", j, 800_000)
	}
	calls := fh.Calls(platform.SiteSetMax)
	if err := ctrl.Step(); err != nil {
		t.Fatal(err)
	}
	rep := ctrl.LastReport()
	if rep.DegradedVCPUs != 1 || !ctrl.VM("a").VCPUs[1].Degraded {
		t.Fatalf("degraded vCPUs = %d, want a/1 alone: %s", rep.DegradedVCPUs, reportSummary(rep))
	}
	if len(rep.Faults) != 1 || rep.Faults[0].Op != "setmax" || !errors.Is(rep.Faults[0].Err, ErrCallBudget) {
		t.Fatalf("faults = %s, want one setmax ErrCallBudget", reportSummary(rep))
	}
	if got := fh.Calls(platform.SiteSetMax) - calls; got != 3 {
		t.Fatalf("%d SetMax calls, want 3 (the slow one never retried)", got)
	}
	for _, j := range []int{0, 2} {
		want := ctrl.VM("a").VCPUs[j].CapUs * cfg.CgroupPeriodUs / cfg.PeriodUs
		if got := quotaOf(inner, "a", j); got[0] != want {
			t.Fatalf("a/%d quota = %v, want %d", j, got, want)
		}
	}
}

// TestDepartureWhileDegradedReleasesQuota is the satellite bugfix pin:
// a VM departing while one of its vCPUs is degraded must still get its
// quotas cleared (ClearMax runs for every vCPU, degraded or not) and
// its cached last-applied state dropped with the VMState, so a
// re-admitted VM under the same name starts with a fresh write-through
// instead of inheriting a stale cap.
func TestDepartureWhileDegradedReleasesQuota(t *testing.T) {
	h := newFakeHost()
	h.AddVM("a", 2, 1200)
	h.AddVM("b", 1, 1200)
	fh := platform.WithFaults(h, 1)
	ctrl := mustController(t, fh, DefaultConfig())
	warmUp(t, ctrl, h, 6, 400_000)

	// Kill a/1's usage counter: the monitor read fails and degrades it.
	fh.MustPlan(platform.SiteUsage, platform.FaultPlan{
		Persistent: true,
		Match:      func(vm string, vcpu int) bool { return vm == "a" && vcpu == 1 },
	})
	h.Consume("a", 0, 400_000)
	h.Consume("b", 0, 400_000)
	if err := ctrl.Step(); err != nil {
		t.Fatal(err)
	}
	if !ctrl.VM("a").VCPUs[1].Degraded {
		t.Fatal("a/1 not degraded after its usage counter vanished")
	}

	// Depart VM a while a/1 is degraded.
	h.RemoveVM("a")
	h.Consume("b", 0, 400_000)
	if err := ctrl.Step(); err != nil {
		t.Fatal(err)
	}
	cleared := map[platform.VCPURef]bool{}
	for _, ref := range h.Cleared {
		cleared[ref] = true
	}
	if !cleared[platform.VCPURef{VM: "a", VCPU: 0}] || !cleared[platform.VCPURef{VM: "a", VCPU: 1}] {
		t.Fatalf("departure did not clear every quota (degraded included): cleared %v", h.Cleared)
	}

	// Re-admit the same name: the controller must write fresh quotas
	// (the new VCPUState starts with an invalid applied cache).
	h.AddVM("a", 2, 1200)
	fh.Clear(platform.SiteUsage)
	warmUp(t, ctrl, h, 3, 400_000)
	if q := h.VCPU("a", 1).QuotaUs; q <= 0 {
		t.Fatalf("re-admitted a/1 got no fresh quota: %d", q)
	}
}

// TestApplyRewritesAfterCounterReset pins the monitor-side invalidation:
// a usage counter reset (VM restart) rebuilds the cgroup unlimited, so
// the next apply must write through even when the cap is unchanged. The
// VM is driven to an idle floor first, where the reset step computes the
// exact same cap as the steady state — only the dropped cache forces
// the rewrite.
func TestApplyRewritesAfterCounterReset(t *testing.T) {
	h := newFakeHost()
	h.AddVM("a", 1, 1200)
	ctrl := mustController(t, h, DefaultConfig())
	// One active period, then idle until the history is all zeros and
	// the estimate has snapped to the MinQuotaUs floor.
	warmUp(t, ctrl, h, 2, 400_000)
	warmUp(t, ctrl, h, 10, 0)
	applied := h.SetMaxCalls
	warmUp(t, ctrl, h, 2, 0)
	if h.SetMaxCalls != applied {
		t.Fatalf("idle floor not steady: %d writes", h.SetMaxCalls-applied)
	}
	capBefore := ctrl.VM("a").VCPUs[0].CapUs

	// Reset the cumulative counter below the previous reading: the delta
	// clamps to zero, so the cap stays at the floor — but the cache must
	// drop and the quota be rewritten.
	h.RemoveVM("a")
	h.AddVM("a", 1, 1200)
	h.Consume("a", 0, 1)
	if err := ctrl.Step(); err != nil {
		t.Fatal(err)
	}
	if got := ctrl.VM("a").VCPUs[0].CapUs; got != capBefore {
		t.Fatalf("cap moved across the reset (%d → %d); the test lost its teeth", capBefore, got)
	}
	if h.SetMaxCalls == applied {
		t.Fatal("no write-through after a usage counter reset")
	}
}
