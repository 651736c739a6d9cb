package core

import (
	"fmt"
	"testing"

	"vfreq/internal/platform"
)

// batchHost layers a counting BatchQuotaWriter over fakeHost, forwarding
// each entry through SetMax so the write maps and the applied counter
// keep working.
type batchHost struct {
	*fakeHost
	batches int
	entries int
}

func (b *batchHost) BatchSetMax(vm string, quotas []platform.VCPUQuota) error {
	b.batches++
	var firstErr error
	for i := range quotas {
		q := &quotas[i]
		b.entries++
		q.Err = b.SetMax(vm, q.VCPU, q.QuotaUs, q.PeriodUs)
		if q.Err != nil && firstErr == nil {
			firstErr = q.Err
		}
	}
	return firstErr
}

var _ platform.BatchQuotaWriter = (*batchHost)(nil)

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

// steadyState steps a controller with a constant per-vCPU consumption
// until the caps converge (the stable estimator branch recalibrates to
// just above the consumption within a few periods).
func steadyState(t *testing.T, ctrl *Controller, h *fakeHost, vms map[string]int, u int64, steps int) {
	t.Helper()
	for s := 0; s < steps; s++ {
		for name, vcpus := range vms {
			for j := 0; j < vcpus; j++ {
				h.consume(name, j, u)
			}
		}
		if err := ctrl.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestApplySkipsCleanQuotas is the incremental-apply acceptance test on
// a host without the batch capability (served by platform's serial
// adapter): once the estimates stabilise, a steady-state step must issue
// zero SetMax writes, and a changed estimate must write again.
func TestApplySkipsCleanQuotas(t *testing.T) {
	h := newFakeHost()
	h.addVM("a", 2, 1200)
	ctrl := mustController(t, h, DefaultConfig())
	steadyState(t, ctrl, h, map[string]int{"a": 2}, 400_000, 8)

	applied := h.applied
	steadyState(t, ctrl, h, map[string]int{"a": 2}, 400_000, 5)
	if h.applied != applied {
		t.Fatalf("steady state issued %d writes over 5 steps, want 0", h.applied-applied)
	}

	// A consumption spike dirties a/0's quota; a/1 stays clean.
	before := h.setMax[key("a", 0)]
	h.consume("a", 0, 800_000)
	h.consume("a", 1, 400_000)
	if err := ctrl.Step(); err != nil {
		t.Fatal(err)
	}
	if h.applied != applied+1 {
		t.Fatalf("spike step issued %d writes, want exactly 1", h.applied-applied)
	}
	if after := h.setMax[key("a", 0)]; after == before {
		t.Fatalf("a/0 quota unchanged after spike: %v", after)
	}
}

// TestApplyBatchedSkipsCleanQuotas is the same acceptance seen from a
// host with the capability: a steady-state step must not even call
// BatchSetMax (the dirty set is empty), and a single dirtied vCPU must
// produce one batch with one entry.
func TestApplyBatchedSkipsCleanQuotas(t *testing.T) {
	fh := newFakeHost()
	fh.addVM("a", 2, 1200)
	h := &batchHost{fakeHost: fh}
	ctrl := mustController(t, h, DefaultConfig())
	if ctrl.batch == nil {
		t.Fatal("batch capability not detected")
	}
	steadyState(t, ctrl, fh, map[string]int{"a": 2}, 400_000, 8)

	batches, entries, applied := h.batches, h.entries, fh.applied
	steadyState(t, ctrl, fh, map[string]int{"a": 2}, 400_000, 5)
	if h.batches != batches || fh.applied != applied {
		t.Fatalf("steady state issued %d batches / %d writes over 5 steps, want 0",
			h.batches-batches, fh.applied-applied)
	}

	fh.consume("a", 0, 800_000)
	fh.consume("a", 1, 400_000)
	if err := ctrl.Step(); err != nil {
		t.Fatal(err)
	}
	if h.batches != batches+1 || h.entries != entries+1 {
		t.Fatalf("spike step issued %d batches with %d entries, want 1 batch, 1 entry",
			h.batches-batches, h.entries-entries)
	}
}

// TestApplyBatchedMatchesSerial runs a controller over a host served by
// the serial adapter and one over a host with its own batch capability
// through the same workload and requires identical quota maps and write
// counts — the batch is a transport optimisation, not a semantic change.
func TestApplyBatchedMatchesSerial(t *testing.T) {
	hs := newFakeHost()
	hb := &batchHost{fakeHost: newFakeHost()}
	for _, h := range []*fakeHost{hs, hb.fakeHost} {
		h.addVM("a", 2, 1200)
		h.addVM("b", 3, 900)
	}
	cfg := DefaultConfig()
	cfg.BurstFraction = 0.25
	serial := mustController(t, hs, cfg)
	batched := mustController(t, hb, cfg)
	for s := int64(0); s < 12; s++ {
		for i, name := range []string{"a", "b"} {
			for j := 0; j < 2+i; j++ {
				u := (s*83_000 + int64(i)*41_000 + int64(j)*29_000) % 1_000_000
				hs.consume(name, j, u)
				hb.consume(name, j, u)
			}
		}
		if err := serial.Step(); err != nil {
			t.Fatal(err)
		}
		if err := batched.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if len(hs.setMax) != len(hb.setMax) {
		t.Fatalf("quota map sizes diverged: serial %d, batched %d", len(hs.setMax), len(hb.setMax))
	}
	for k, v := range hs.setMax {
		if hb.setMax[k] != v {
			t.Fatalf("quota for %s: serial %v, batched %v", k, v, hb.setMax[k])
		}
	}
	for k, v := range hs.setBurst {
		if hb.setBurst[k] != v {
			t.Fatalf("burst for %s: serial %v, batched %v", k, v, hb.setBurst[k])
		}
	}
	if hs.applied != hb.fakeHost.applied {
		t.Fatalf("write counts diverged: serial %d, batched %d", hs.applied, hb.fakeHost.applied)
	}
}

// TestApplyBatchedPartialFailure injects a per-entry fault into the
// batched write: the failed vCPU alone degrades with an apply/setmax
// fault and its dirty flag survives (the cache is invalidated), so the
// quota is rewritten on the next clean step even though its cap never
// changed; the other entries of the same batch land normally.
func TestApplyBatchedPartialFailure(t *testing.T) {
	inner := newFakeHost()
	inner.addVM("a", 3, 1200)
	fh := platform.WithFaults(inner, 1)
	cfg := DefaultConfig()
	cfg.HostRetries = 0
	ctrl := mustController(t, fh, cfg)
	if ctrl.batch == nil {
		t.Fatal("FaultyHost should provide the batch capability")
	}
	steadyState(t, ctrl, inner, map[string]int{"a": 3}, 400_000, 8)

	fh.MustPlan(platform.SiteBatchSetMax, platform.FaultPlan{
		Persistent: true,
		Match:      func(vm string, vcpu int) bool { return vcpu == 1 },
	})
	// Spike every vCPU so the whole batch is dirty.
	for j := 0; j < 3; j++ {
		inner.consume("a", j, 800_000)
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
	if got := inner.setMax[key("a", 0)]; got[0] != want {
		t.Fatalf("a/0 quota = %v, want %d", got, want)
	}
	stale := inner.setMax[key("a", 1)]

	// Plan cleared: the next step recovers a/1 and must rewrite its
	// quota — the failed write dropped the cache, so the entry is still
	// dirty even though the cap is unchanged.
	fh.Clear(platform.SiteBatchSetMax)
	steadyState(t, ctrl, inner, map[string]int{"a": 3}, 800_000, 2)
	if ctrl.VM("a").VCPUs[1].Degraded {
		t.Fatal("a/1 still degraded after the plan cleared")
	}
	fresh := inner.setMax[key("a", 1)]
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
	h.addVM("a", 2, 1200)
	h.addVM("b", 1, 1200)
	ctrl := mustController(t, h, DefaultConfig())
	steadyState(t, ctrl, h, map[string]int{"a": 2, "b": 1}, 400_000, 6)

	// Kill a/1's usage counter: the monitor read fails and degrades it.
	delete(h.usage, key("a", 1))
	h.consume("a", 0, 400_000)
	h.consume("b", 0, 400_000)
	if err := ctrl.Step(); err != nil {
		t.Fatal(err)
	}
	if !ctrl.VM("a").VCPUs[1].Degraded {
		t.Fatal("a/1 not degraded after its usage counter vanished")
	}

	// Depart VM a while a/1 is degraded.
	h.vms = h.vms[1:] // drop "a", keep "b"
	h.consume("b", 0, 400_000)
	if err := ctrl.Step(); err != nil {
		t.Fatal(err)
	}
	cleared := map[string]bool{}
	for _, k := range h.cleared {
		cleared[k] = true
	}
	if !cleared[key("a", 0)] || !cleared[key("a", 1)] {
		t.Fatalf("departure did not clear every quota (degraded included): cleared %v", h.cleared)
	}
	if _, ok := h.setMax[key("a", 1)]; ok {
		t.Fatal("a/1 still holds a quota after departure")
	}

	// Re-admit the same name: the controller must write fresh quotas
	// (the new VCPUState starts with an invalid applied cache).
	h.addVM("a", 2, 1200)
	steadyState(t, ctrl, h, map[string]int{"a": 2, "b": 1}, 400_000, 3)
	if q, ok := h.setMax[key("a", 1)]; !ok || q[0] <= 0 {
		t.Fatalf("re-admitted a/1 got no fresh quota: %v (present %v)", q, ok)
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
	h.addVM("a", 1, 1200)
	ctrl := mustController(t, h, DefaultConfig())
	// One active period, then idle until the history is all zeros and
	// the estimate has snapped to the MinQuotaUs floor.
	steadyState(t, ctrl, h, map[string]int{"a": 1}, 400_000, 2)
	steadyState(t, ctrl, h, map[string]int{"a": 1}, 0, 10)
	applied := h.applied
	steadyState(t, ctrl, h, map[string]int{"a": 1}, 0, 2)
	if h.applied != applied {
		t.Fatalf("idle floor not steady: %d writes", h.applied-applied)
	}
	capBefore := ctrl.VM("a").VCPUs[0].CapUs

	// Reset the cumulative counter below the previous reading: the delta
	// clamps to zero, so the cap stays at the floor — but the cache must
	// drop and the quota be rewritten.
	h.usage[key("a", 0)] = 1
	if err := ctrl.Step(); err != nil {
		t.Fatal(err)
	}
	if got := ctrl.VM("a").VCPUs[0].CapUs; got != capBefore {
		t.Fatalf("cap moved across the reset (%d → %d); the test lost its teeth", capBefore, got)
	}
	if h.applied == applied {
		t.Fatal("no write-through after a usage counter reset")
	}
}
