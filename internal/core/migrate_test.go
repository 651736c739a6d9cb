package core

import (
	"reflect"
	"strings"
	"testing"

	"vfreq/internal/platform"
)

// stripBaselines zeroes the fields a migration documents as not carried:
// the usage baseline restarts with the target's counters and the thread
// pin is re-read live. Everything else must round-trip bit-identically.
func stripBaselines(vs VMSnapshot) VMSnapshot {
	out := vs
	out.VCPUs = append([]VCPUSnapshot(nil), vs.VCPUs...)
	for i := range out.VCPUs {
		out.VCPUs[i].PrevUsageUs = 0
	}
	return out
}

// Export on the source, adopt on a fresh host: the re-export from the
// target must be bit-identical modulo the documented counter reset.
func TestExportAdoptRoundTrip(t *testing.T) {
	src := newFakeHost()
	src.AddVM("a", 2, 1200)
	cs := mustController(t, src, DefaultConfig())
	warmUp(t, cs, src, 5, 300_000) // under the 500 µs guarantee: credit accrues

	snap, err := cs.ExportVM("a")
	if err != nil {
		t.Fatal(err)
	}
	if snap.CreditUs <= 0 {
		t.Fatalf("source earned no credit (%d); the round trip would prove nothing", snap.CreditUs)
	}
	if len(snap.VCPUs) != 2 || snap.VCPUs[0].Hist == nil {
		t.Fatalf("export carried no history: %+v", snap)
	}

	tgt := newFakeHost()
	tgt.AddVM("b", 1, 500) // the target controller is live and busy
	ct := mustController(t, tgt, DefaultConfig())
	warmUp(t, ct, tgt, 2, 100_000)
	tgt.AddVM("a", 2, 1200) // "provisioned": fresh usage counters at 0
	if err := ct.AdoptVM(snap); err != nil {
		t.Fatal(err)
	}

	st := ct.VM("a")
	if st == nil {
		t.Fatal("target does not track the adopted VM")
	}
	if st.CreditUs != snap.CreditUs {
		t.Fatalf("credit %d after adoption, exported %d", st.CreditUs, snap.CreditUs)
	}
	for _, v := range st.VCPUs {
		if v.PrevUsageUs != 0 {
			t.Fatalf("vcpu%d baseline %d, want 0 (target counters restart)", v.Index, v.PrevUsageUs)
		}
	}
	re, err := ct.ExportVM("a")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stripBaselines(re), stripBaselines(snap); !reflect.DeepEqual(got, want) {
		t.Fatalf("re-export diverged:\n got %+v\nwant %+v", got, want)
	}
}

// The documented counter reset: the first post-adoption monitor delta
// spans target readings only — no negative value, no multi-period
// artefact from the source's much larger cumulative counter.
func TestAdoptFreshCounterFirstDelta(t *testing.T) {
	src := newFakeHost()
	src.AddVM("a", 1, 1200)
	cs := mustController(t, src, DefaultConfig())
	warmUp(t, cs, src, 8, 450_000) // source counter ends at 3.6 s

	snap, err := cs.ExportVM("a")
	if err != nil {
		t.Fatal(err)
	}
	tgt := newFakeHost()
	tgt.AddVM("a", 1, 1200)
	ct := mustController(t, tgt, DefaultConfig())
	if err := ct.AdoptVM(snap); err != nil {
		t.Fatal(err)
	}
	tgt.Consume("a", 0, 123_456)
	if err := ct.Step(); err != nil {
		t.Fatal(err)
	}
	v := ct.VM("a").VCPUs[0]
	if v.LastU != 123_456 {
		t.Fatalf("first post-adoption delta %d, want 123456", v.LastU)
	}
	if v.Degraded {
		t.Fatal("adopted vCPU degraded on a clean first step")
	}
}

// A degraded vCPU carries its failure counters across the move, so the
// recovery streak does not restart from zero on the target.
func TestAdoptDegradedVCPUCarryover(t *testing.T) {
	snap := VMSnapshot{
		Name: "a", CreditUs: 40_000,
		VCPUs: []VCPUSnapshot{{
			Index: 0, ConsumedUs: 200_000, CapUs: 500_000, EstimateUs: 300_000,
			Hist: []int64{200_000, 210_000}, Degraded: true, FailedSteps: 3,
		}},
	}
	tgt := newFakeHost()
	tgt.AddVM("a", 1, 1200)
	ct := mustController(t, tgt, DefaultConfig())
	if err := ct.AdoptVM(snap); err != nil {
		t.Fatal(err)
	}
	v := ct.VM("a").VCPUs[0]
	if !v.Degraded || v.FailedSteps != 3 {
		t.Fatalf("degradation not carried: Degraded=%v FailedSteps=%d", v.Degraded, v.FailedSteps)
	}
}

// A quarantined VM (open breaker) is adopted with no host reads, stays
// quarantined for its remaining window, and resumes the open→half-open
// walk on the target exactly where the source left it.
func TestAdoptQuarantinedStaysQuarantined(t *testing.T) {
	snap := VMSnapshot{
		Name: "a", CreditUs: 10_000,
		Breaker: int(BreakerOpen), BreakerFaultStreak: 3, BreakerOpenLeft: 2,
		VCPUs: []VCPUSnapshot{{
			Index: 0, ConsumedUs: 100_000, CapUs: 500_000, EstimateUs: 100_000,
			PrevUsageUs: 7_000_000, // stale source baseline: must be discarded
		}},
	}
	cfg := DefaultConfig()
	cfg.BreakerThreshold = 3
	cfg.BreakerOpenSteps = 4
	tgt := newFakeHost()
	tgt.AddVM("a", 1, 1200)
	ct := mustController(t, tgt, cfg)
	if err := ct.AdoptVM(snap); err != nil {
		t.Fatal(err)
	}
	st := ct.VM("a")
	if st.Breaker.State != BreakerOpen || st.Breaker.OpenLeft != 2 {
		t.Fatalf("breaker not carried: %+v", st.Breaker)
	}
	if st.VCPUs[0].PrevUsageUs != 0 {
		t.Fatalf("quarantined baseline %d, want 0 (target counters restart)", st.VCPUs[0].PrevUsageUs)
	}
	// Two quarantine steps, then the half-open probe on the target.
	for i := 0; i < 2; i++ {
		if err := ct.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := ct.VM("a").Breaker.State; got != BreakerHalfOpen {
		t.Fatalf("breaker %v after the open window elapsed, want half-open", got)
	}
}

// A quarantined VM adopted by a migration target runs under its held
// quota from adoption on. Apply skips its degraded vCPUs for the whole
// open window, so without the write at adoption its new cgroup stayed
// unlimited until the first probe.
func TestAdoptQuarantinedWritesHeldQuota(t *testing.T) {
	snap := VMSnapshot{
		Name:    "a",
		Breaker: int(BreakerOpen), BreakerFaultStreak: 3, BreakerOpenLeft: 2,
		VCPUs: []VCPUSnapshot{{
			Index: 0, ConsumedUs: 300_000, CapUs: 300_000, EstimateUs: 300_000,
			Degraded: true, FailedSteps: 3,
		}},
	}
	cfg := DefaultConfig()
	cfg.BreakerThreshold = 3
	cfg.BreakerOpenSteps = 4
	tgt := newFakeHost()
	tgt.AddVM("a", 1, 1200)
	ct := mustController(t, tgt, cfg)
	if err := ct.AdoptVM(snap); err != nil {
		t.Fatal(err)
	}
	want := [2]int64{30_000, 100_000} // 300 000 µs of each 1 s period
	for step := 0; ; step++ {
		if got := quotaOf(tgt, "a", 0); got != want {
			t.Fatalf("after %d steps the target cgroup holds %v, want the held %v", step, got, want)
		}
		if step == 2 { // the open window is over
			break
		}
		if err := ct.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if st := ct.VM("a").Breaker.State; st != BreakerHalfOpen {
		t.Fatalf("breaker %v after the open window, want half-open", st)
	}
}

// A half-open breaker is carried as half-open, so the target probes the
// VM on its first Step and one clean probe re-admits it, on the same
// step the source would have.
func TestAdoptHalfOpenProbeContinues(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BreakerThreshold = 3
	cfg.BreakerOpenSteps = 4
	snap := VMSnapshot{
		Name:    "a",
		Breaker: int(BreakerHalfOpen),
		VCPUs: []VCPUSnapshot{{
			Index: 0, ConsumedUs: 100_000, CapUs: 500_000, EstimateUs: 100_000,
			Hist: []int64{100_000},
		}},
	}
	tgt := newFakeHost()
	tgt.AddVM("a", 1, 1200)
	ct := mustController(t, tgt, cfg)
	if err := ct.AdoptVM(snap); err != nil {
		t.Fatal(err)
	}
	if st := ct.VM("a"); st.Breaker.State != BreakerHalfOpen {
		t.Fatalf("probe state not carried: %+v", st.Breaker)
	}
	// One clean probe closes the breaker.
	tgt.Consume("a", 0, 100_000)
	if err := ct.Step(); err != nil {
		t.Fatal(err)
	}
	if got := ct.VM("a").Breaker.State; got != BreakerClosed {
		t.Fatalf("breaker %v after the completing probe, want closed", got)
	}
}

func TestAdoptVMValidation(t *testing.T) {
	tgt := newFakeHost()
	tgt.AddVM("a", 1, 1200)
	ct := mustController(t, tgt, DefaultConfig())
	ok := VMSnapshot{Name: "a",
		VCPUs: []VCPUSnapshot{{Index: 0}}}

	bad := ok
	bad.VCPUs = []VCPUSnapshot{{Index: 1}}
	if err := ct.AdoptVM(bad); err == nil {
		t.Fatal("non-positional vCPU index adopted")
	}
	bad = ok
	bad.CreditUs = -1
	if err := ct.AdoptVM(bad); err == nil {
		t.Fatal("negative credit adopted")
	}
	ghost := ok
	ghost.Name = "ghost"
	if err := ct.AdoptVM(ghost); err == nil || !strings.Contains(err.Error(), "not on this host") {
		t.Fatalf("adopting an unprovisioned VM: %v", err)
	}
	if err := ct.AdoptVM(ok); err != nil {
		t.Fatal(err)
	}
	if err := ct.AdoptVM(ok); err == nil {
		t.Fatal("double adoption accepted")
	}
}

// An oversized wallet is re-clamped under the target's credit cap, and a
// VM that grew between export and adoption gets fresh vCPUs for the new
// indexes.
func TestAdoptClampsCreditAndGrows(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CreditCapPeriods = 2
	tgt := newFakeHost()
	tgt.AddVM("a", 2, 1200) // grew: the snapshot knows one vCPU
	ct := mustController(t, tgt, cfg)
	snap := VMSnapshot{Name: "a",
		CreditUs: 1 << 40,
		VCPUs:    []VCPUSnapshot{{Index: 0, ConsumedUs: 100_000, Hist: []int64{100_000}}}}
	if err := ct.AdoptVM(snap); err != nil {
		t.Fatal(err)
	}
	st := ct.VM("a")
	wantCap := cfg.CreditCapPeriods * 500_000 * 2
	if st.CreditUs != wantCap {
		t.Fatalf("credit %d, want clamped to %d", st.CreditUs, wantCap)
	}
	if len(st.VCPUs) != 2 {
		t.Fatalf("tracked %d vCPUs, want 2", len(st.VCPUs))
	}
	if st.VCPUs[0].Hist.Len() != 1 || st.VCPUs[1].Hist.Len() != 0 {
		t.Fatal("history mixed up between carried and grown vCPUs")
	}
}

func TestForgetVM(t *testing.T) {
	h := newFakeHost()
	h.AddVM("a", 1, 1200)
	h.AddVM("b", 1, 1200)
	c := mustController(t, h, DefaultConfig())
	warmUp(t, c, h, 1, 100_000)
	if !c.ForgetVM("a") {
		t.Fatal("tracked VM not forgotten")
	}
	if c.ForgetVM("a") {
		t.Fatal("double forget reported success")
	}
	if c.VM("a") != nil {
		t.Fatal("forgotten VM still tracked")
	}
	if len(h.Cleared) != 0 {
		t.Fatalf("ForgetVM touched the host: cleared %v", h.Cleared)
	}
	// The survivor is unaffected and the controller keeps stepping.
	if c.VM("b") == nil {
		t.Fatal("unrelated VM lost")
	}
	// The host still lists "a" (core-level forget without a manager
	// destroy), so the next sync re-registers it cold — fresh wallet.
	warmUp(t, c, h, 1, 100_000)
	if st := c.VM("a"); st == nil || st.CreditUs != 0 {
		t.Fatalf("re-registration not cold: %+v", st)
	}
}

// TestRestoreIsAdoptEveryVM: a whole-controller Restore and a per-VM
// AdoptVM of every export run the same primitive. On one host, with one
// VM quarantined and one half-open, the two controllers end up equal
// except for the one thing the callers know differently: Restore keeps a
// quarantined VM's checkpointed usage baseline (same cgroups, counters
// kept counting), AdoptVM zeroes it (migration target, counters restart).
func TestRestoreIsAdoptEveryVM(t *testing.T) {
	inner := newFakeHost()
	for _, n := range []string{"ok", "quar", "half", "big"} {
		inner.AddVM(n, 2, 900)
	}
	fh := platform.WithFaults(inner, 9)
	cfg := breakerConfig() // trip after 3 faulty steps, 2 quarantined, 2 probes
	c := mustController(t, fh, cfg)
	warmUp(t, c, inner, 3, 300_000)

	failing := map[string]bool{"half": true}
	fh.MustPlan(platform.SiteUsage, platform.FaultPlan{
		Persistent: true,
		Match:      func(vm string, vcpu int) bool { return failing[vm] },
	})
	warmUp(t, c, inner, 2, 300_000)
	failing["quar"] = true
	warmUp(t, c, inner, 3, 300_000) // "half" trips at 3 and half-opens at 5, "quar" trips at 5
	failing["half"] = false         // its probe reads (and the rebuild's) succeed again
	if got := c.VM("quar").Breaker.State; got != BreakerOpen {
		t.Fatalf("quar breaker %v, want open", got)
	}
	if got := c.VM("half").Breaker.State; got != BreakerHalfOpen {
		t.Fatalf("half breaker %v, want half-open", got)
	}

	snap := c.Snapshot()
	restored := mustController(t, fh, cfg)
	if rr, err := restored.Restore(snap); err != nil || len(rr.Adopted) != 4 {
		t.Fatalf("restore: %v, %v", rr, err)
	}
	adopted := mustController(t, fh, cfg)
	for _, vs := range snap.VMs {
		exp, err := c.ExportVM(vs.Name)
		if err != nil {
			t.Fatal(err)
		}
		if err := adopted.AdoptVM(exp); err != nil {
			t.Fatal(err)
		}
	}

	for _, vs := range snap.VMs {
		r, _ := restored.ExportVM(vs.Name)
		a, _ := adopted.ExportVM(vs.Name)
		if vs.Name == "quar" {
			for j := range r.VCPUs {
				if want := vs.VCPUs[j].PrevUsageUs; want == 0 || r.VCPUs[j].PrevUsageUs != want {
					t.Fatalf("restored quar/%d baseline %d, want the checkpointed %d", j, r.VCPUs[j].PrevUsageUs, want)
				}
				if a.VCPUs[j].PrevUsageUs != 0 {
					t.Fatalf("adopted quar/%d baseline %d, want 0", j, a.VCPUs[j].PrevUsageUs)
				}
				r.VCPUs[j].PrevUsageUs = 0
			}
		}
		if !reflect.DeepEqual(r, a) {
			t.Fatalf("%s: Restore and AdoptVM disagree:\nrestore %+v\nadopt   %+v", vs.Name, r, a)
		}
	}
	for i, st := range restored.VMs() {
		if got := adopted.VMs()[i].Info.Name; got != st.Info.Name {
			t.Fatalf("registration order diverged at %d: %s vs %s", i, st.Info.Name, got)
		}
	}
}
