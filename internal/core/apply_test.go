package core

import (
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

// TestApplySkipsCleanQuotas is the incremental-apply acceptance test on
// a host without the batch capability (served by platform's serial
// adapter): once the estimates stabilise, a steady-state step must issue
// zero SetMax writes, and a changed estimate must write again.
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

// TestApplyBatchedSkipsCleanQuotas is the same acceptance seen from a
// host with the capability (FaultyHost's own, no plan armed, which tallies
// every entry that reaches it): a steady-state step must hand BatchSetMax
// nothing (the dirty set is empty), and a single dirtied vCPU must arrive
// as one entry and one write.
func TestApplyBatchedSkipsCleanQuotas(t *testing.T) {
	h := newFakeHost()
	h.AddVM("a", 2, 1200)
	fh := platform.WithFaults(h, 1)
	ctrl := mustController(t, fh, DefaultConfig())
	if _, own := ctrl.batch.(*platform.FaultyHost); !own {
		t.Fatal("batch capability not detected")
	}
	warmUp(t, ctrl, h, 8, 400_000)

	entries, applied := fh.Calls(platform.SiteBatchSetMax), h.SetMaxCalls
	warmUp(t, ctrl, h, 5, 400_000)
	if fh.Calls(platform.SiteBatchSetMax) != entries || h.SetMaxCalls != applied {
		t.Fatalf("steady state issued %d batch entries / %d writes over 5 steps, want 0",
			fh.Calls(platform.SiteBatchSetMax)-entries, h.SetMaxCalls-applied)
	}

	h.Consume("a", 0, 800_000)
	h.Consume("a", 1, 400_000)
	if err := ctrl.Step(); err != nil {
		t.Fatal(err)
	}
	if fh.Calls(platform.SiteBatchSetMax) != entries+1 || h.SetMaxCalls != applied+1 {
		t.Fatalf("spike step issued %d batch entries and %d writes, want 1 and 1",
			fh.Calls(platform.SiteBatchSetMax)-entries, h.SetMaxCalls-applied)
	}
}

// TestApplyBatchedMatchesSerial runs a controller over a host served by
// the serial adapter and one over a host with its own batch capability
// through the same workload and requires identical quota maps and write
// counts — the batch is a transport optimisation, not a semantic change.
func TestApplyBatchedMatchesSerial(t *testing.T) {
	hs, hb := newFakeHost(), newFakeHost()
	for _, h := range []*platform.Scripted{hs, hb} {
		h.AddVM("a", 2, 1200)
		h.AddVM("b", 3, 900)
	}
	cfg := DefaultConfig()
	cfg.BurstFraction = 0.25
	serial := mustController(t, hs, cfg)
	batched := mustController(t, platform.WithFaults(hb, 1), cfg)
	for s := int64(0); s < 12; s++ {
		for i, name := range []string{"a", "b"} {
			for j := 0; j < 2+i; j++ {
				u := (s*83_000 + int64(i)*41_000 + int64(j)*29_000) % 1_000_000
				hs.Consume(name, j, u)
				hb.Consume(name, j, u)
			}
		}
		if err := serial.Step(); err != nil {
			t.Fatal(err)
		}
		if err := batched.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for _, vm := range vmsOf(hs) {
		for j := 0; j < vm.VCPUs; j++ {
			if qs, qb := quotaOf(hs, vm.Name, j), quotaOf(hb, vm.Name, j); qs != qb {
				t.Fatalf("quota for %s/%d: serial %v, batched %v", vm.Name, j, qs, qb)
			}
			if bs, bb := hs.VCPU(vm.Name, j).BurstUs, hb.VCPU(vm.Name, j).BurstUs; bs != bb {
				t.Fatalf("burst for %s/%d: serial %v, batched %v", vm.Name, j, bs, bb)
			}
		}
	}
	if hs.SetMaxCalls != hb.SetMaxCalls {
		t.Fatalf("write counts diverged: serial %d, batched %d", hs.SetMaxCalls, hb.SetMaxCalls)
	}
}

// TestApplyBatchedPartialFailure injects a per-entry fault into the
// batched write: the failed vCPU alone degrades with an apply/setmax
// fault and its dirty flag survives (the cache is invalidated), so the
// quota is rewritten on the next clean step even though its cap never
// changed; the other entries of the same batch land normally.
func TestApplyBatchedPartialFailure(t *testing.T) {
	inner := newFakeHost()
	inner.AddVM("a", 3, 1200)
	fh := platform.WithFaults(inner, 1)
	cfg := DefaultConfig()
	cfg.HostRetries = 0
	ctrl := mustController(t, fh, cfg)
	if ctrl.batch == nil {
		t.Fatal("FaultyHost should provide the batch capability")
	}
	warmUp(t, ctrl, inner, 8, 400_000)

	fh.MustPlan(platform.SiteBatchSetMax, platform.FaultPlan{
		Persistent: true,
		Match:      func(vm string, vcpu int) bool { return vcpu == 1 },
	})
	// Spike every vCPU so the whole batch is dirty.
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
	// The healthy entries of the same batch landed.
	want := ctrl.VM("a").VCPUs[0].CapUs * cfg.CgroupPeriodUs / cfg.PeriodUs
	if got := quotaOf(inner, "a", 0); got[0] != want {
		t.Fatalf("a/0 quota = %v, want %d", got, want)
	}
	stale := quotaOf(inner, "a", 1)

	// Plan cleared: the next step recovers a/1 and must rewrite its
	// quota — the failed write dropped the cache, so the entry is still
	// dirty even though the cap is unchanged.
	fh.Clear(platform.SiteBatchSetMax)
	warmUp(t, ctrl, inner, 2, 800_000)
	if ctrl.VM("a").VCPUs[1].Degraded {
		t.Fatal("a/1 still degraded after the plan cleared")
	}
	fresh := quotaOf(inner, "a", 1)
	wantQ := ctrl.VM("a").VCPUs[1].CapUs * cfg.CgroupPeriodUs / cfg.PeriodUs
	if fresh == stale && fresh[0] != wantQ {
		t.Fatalf("a/1 quota never rewritten after recovery: %v (cap wants %d)", fresh, wantQ)
	}
	if fresh[0] != wantQ {
		t.Fatalf("a/1 quota = %v, want %d", fresh, wantQ)
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
