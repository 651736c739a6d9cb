package core

import (
	"errors"
	"slices"
	"testing"
	"time"

	"vfreq/internal/platform"
)

// breakerConfig is the shared tuning of the breaker tests: trip after 3
// consecutive faulty steps, quarantine for 2, close on the first clean
// probe. No retries, so every injected fault lands.
func breakerConfig() Config {
	cfg := DefaultConfig()
	cfg.HostRetries = 0
	cfg.BreakerThreshold = 3
	cfg.BreakerOpenSteps = 2
	return cfg
}

// TestBreakerTripQuarantineReadmit walks one VM through the whole state
// machine: closed → (3 faulty steps) → open → (2 quarantined steps with
// no host reads at all) → half-open → (1 clean probe) → closed, while
// a healthy neighbour VM keeps being monitored and controlled
// throughout.
func TestBreakerTripQuarantineReadmit(t *testing.T) {
	inner := newFakeHost()
	inner.AddVM("a", 2, 1200)
	inner.AddVM("b", 1, 600)
	fh := platform.WithFaults(inner, 11)
	c := mustController(t, fh, breakerConfig())
	warmUp(t, c, inner, 3, 300_000)

	fh.MustPlan(platform.SiteUsage, platform.FaultPlan{
		Persistent: true,
		Match:      func(vm string, vcpu int) bool { return vm == "a" },
	})

	// Steps 1–2 of the streak: degraded but not yet tripped.
	for i := 0; i < 2; i++ {
		warmUp(t, c, inner, 1, 300_000)
		rep := c.LastReport()
		if rep.BreakerTrips != 0 || rep.OpenVMs != 0 {
			t.Fatalf("streak step %d tripped early: %s", i, rep.String())
		}
		if rep.DegradedVCPUs != 2 {
			t.Fatalf("streak step %d: degraded = %d, want 2", i, rep.DegradedVCPUs)
		}
	}
	if st := c.VM("a").Breaker; st.State != BreakerClosed || st.FaultStreak != 2 {
		t.Fatalf("breaker before trip = %+v", st)
	}

	// Step 3 trips the breaker.
	warmUp(t, c, inner, 1, 300_000)
	rep := c.LastReport()
	if rep.BreakerTrips != 1 || rep.OpenVMs != 1 {
		t.Fatalf("trip step: %s", rep.String())
	}
	tripped := false
	for _, f := range rep.Faults {
		if f.Stage == "breaker" && f.Op == "open" && f.VM == "a" {
			tripped = true
		}
	}
	if !tripped {
		t.Fatalf("no breaker/open fault recorded: %v", rep.Faults)
	}
	if st := c.VM("a").Breaker; st.State != BreakerOpen || st.OpenLeft != 2 {
		t.Fatalf("breaker after trip = %+v", st)
	}

	// Quarantine: the monitor must not touch VM a at all — per step,
	// only b's single vCPU reaches the usage site (which would fail for
	// a anyway, the plan is still armed).
	for i := 0; i < 2; i++ {
		before := fh.Calls(platform.SiteUsage)
		warmUp(t, c, inner, 1, 300_000)
		if got := fh.Calls(platform.SiteUsage) - before; got != 1 {
			t.Fatalf("quarantine step %d: %d usage calls, want 1 (VM b only)", i, got)
		}
		rep := c.LastReport()
		if rep.DegradedVCPUs != 2 || rep.VCPUs != 3 {
			t.Fatalf("quarantine step %d: %s", i, rep.String())
		}
		if i == 0 && rep.OpenVMs != 1 {
			t.Fatalf("quarantine step 0 not reported open: %s", rep.String())
		}
	}
	// After the second quarantined step the breaker is probing.
	if st := c.VM("a").Breaker; st.State != BreakerHalfOpen {
		t.Fatalf("breaker after quarantine = %+v", st)
	}
	if rep := c.LastReport(); rep.HalfOpenVMs != 1 || rep.OpenVMs != 0 {
		t.Fatalf("half-open not reported: %s", rep.String())
	}

	// The host recovers; one clean probe re-admits the VM.
	fh.Clear(platform.SiteUsage)
	warmUp(t, c, inner, 1, 300_000)
	if st := c.VM("a").Breaker; st.State != BreakerClosed || st.FaultStreak != 0 {
		t.Fatalf("breaker after the probe = %+v", st)
	}
	rep = c.LastReport()
	if rep.Recovered != 2 || rep.DegradedVCPUs != 0 {
		t.Fatalf("re-admission step: %s", rep.String())
	}
	for _, v := range c.VM("a").VCPUs {
		if v.Degraded || v.FailedSteps != 0 {
			t.Fatalf("vCPU %d not clean after re-admission: %+v", v.Index, v)
		}
	}
}

// TestBreakerFaultyProbeReopens: one faulty step while half-open sends
// the VM straight back into quarantine for a full window.
func TestBreakerFaultyProbeReopens(t *testing.T) {
	inner := newFakeHost()
	inner.AddVM("a", 1, 1200)
	fh := platform.WithFaults(inner, 11)
	c := mustController(t, fh, breakerConfig())
	warmUp(t, c, inner, 3, 300_000)

	fh.MustPlan(platform.SiteUsage, platform.FaultPlan{Persistent: true})
	// 3 steps to trip, 2 quarantined steps to reach half-open.
	warmUp(t, c, inner, 5, 300_000)
	if st := c.VM("a").Breaker; st.State != BreakerHalfOpen {
		t.Fatalf("breaker = %+v, want half-open", st)
	}
	// The plan is still armed: the probe fails and re-opens immediately
	// (no 3-step streak needed while probing).
	warmUp(t, c, inner, 1, 300_000)
	rep := c.LastReport()
	if st := c.VM("a").Breaker; st.State != BreakerOpen || st.OpenLeft != 2 {
		t.Fatalf("breaker after failed probe = %+v", st)
	}
	if rep.BreakerTrips != 1 || rep.OpenVMs != 1 {
		t.Fatalf("failed probe not reported as a trip: %s", rep.String())
	}
}

// TestBreakerIgnoresFailedSteps: a Step that fails whole (the VM list is
// unreachable, no stage runs) leaves every breaker where it was. Its
// Degraded flags are the previous Step's, so counting them would trip a
// closed breaker on faults it already counted, and would drain an open
// breaker's quarantine with no Step completed.
func TestBreakerIgnoresFailedSteps(t *testing.T) {
	outage := func(t *testing.T, c *Controller, fh *platform.FaultyHost, steps int) {
		t.Helper()
		fh.MustPlan(platform.SiteListVMs, always)
		for i := 0; i < steps; i++ {
			if err := c.Step(); err == nil {
				t.Fatal("Step succeeded with ListVMs failing")
			}
		}
		fh.Clear(platform.SiteListVMs)
	}
	t.Run("closed streak", func(t *testing.T) {
		inner := newFakeHost()
		inner.AddVM("a", 1, 1200)
		fh := platform.WithFaults(inner, 11)
		c := mustController(t, fh, breakerConfig())
		warmUp(t, c, inner, 3, 300_000)

		fh.MustPlan(platform.SiteUsage, platform.FaultPlan{Count: 1})
		warmUp(t, c, inner, 1, 300_000)
		outage(t, c, fh, 2)
		if st := c.VM("a").Breaker; st.State != BreakerClosed || st.FaultStreak != 1 {
			t.Fatalf("breaker after 1 faulty and 2 failed steps = %+v, want closed with streak 1", st)
		}
		warmUp(t, c, inner, 1, 300_000)
		if st := c.VM("a").Breaker; st.State != BreakerClosed || st.FaultStreak != 0 {
			t.Fatalf("breaker after a clean step = %+v, want closed with streak 0", st)
		}
	})
	t.Run("open quarantine", func(t *testing.T) {
		inner := newFakeHost()
		inner.AddVM("a", 1, 1200)
		fh := platform.WithFaults(inner, 11)
		c := mustController(t, fh, breakerConfig())
		warmUp(t, c, inner, 3, 300_000)

		fh.MustPlan(platform.SiteUsage, always)
		warmUp(t, c, inner, 3, 300_000)
		if st := c.VM("a").Breaker; st.State != BreakerOpen || st.OpenLeft != 2 {
			t.Fatalf("breaker after the trip = %+v", st)
		}
		outage(t, c, fh, 2)
		if st := c.VM("a").Breaker; st.State != BreakerOpen || st.OpenLeft != 2 {
			t.Fatalf("breaker after 2 failed steps = %+v, want open with 2 steps left", st)
		}
		warmUp(t, c, inner, 2, 300_000)
		if st := c.VM("a").Breaker; st.State != BreakerHalfOpen {
			t.Fatalf("breaker after 2 completed quarantine steps = %+v, want half-open", st)
		}
	})
}

// TestBreakerConservationDuringQuarantine: quarantined caps are held,
// and the controller passes Check through trip, quarantine and
// re-admission.
func TestBreakerConservationDuringQuarantine(t *testing.T) {
	inner := newFakeHost()
	inner.AddVM("a", 2, 1200)
	inner.AddVM("b", 1, 1800)
	fh := platform.WithFaults(readableQuotas{inner}, 3)
	c := mustController(t, fh, breakerConfig())
	warmUp(t, c, inner, 3, 900_000)

	fh.MustPlan(platform.SiteUsage, platform.FaultPlan{
		Persistent: true,
		Match:      func(vm string, vcpu int) bool { return vm == "a" },
	})
	for step := 0; step < 10; step++ {
		if step == 7 {
			fh.Clear(platform.SiteUsage)
		}
		warmUp(t, c, inner, 1, 900_000)
		if err := c.Check(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// TestCallBudgetDegradesSlowVCPU: a usage read that injects more delay
// than Config.CallBudgetUs fails that vCPU with ErrCallBudget — without
// a retry (slow is not flaky) — while the fast vCPU stays healthy.
func TestCallBudgetDegradesSlowVCPU(t *testing.T) {
	inner := newFakeHost()
	inner.AddVM("a", 2, 1200)
	fh := platform.WithFaults(inner, 5)
	cfg := DefaultConfig()
	cfg.CallBudgetUs = 200 // 0.2 ms budget
	c := mustController(t, fh, cfg)
	warmUp(t, c, inner, 2, 300_000)

	fh.MustPlan(platform.SiteUsage, platform.FaultPlan{
		DelayRate: 1,
		DelayUs:   20_000, // 10–20 ms injected stall, far over budget
		Match:     func(vm string, vcpu int) bool { return vcpu == 1 },
	})
	inner.Consume("a", 0, 300_000)
	inner.Consume("a", 1, 300_000)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	rep := c.LastReport()
	if rep.DegradedVCPUs != 1 || rep.VCPUs != 2 {
		t.Fatalf("degraded/total = %d/%d: %s", rep.DegradedVCPUs, rep.VCPUs, rep.String())
	}
	if rep.Retries != 0 {
		t.Fatalf("a budget overrun was retried (%d retries)", rep.Retries)
	}
	found := false
	for _, f := range rep.Faults {
		if f.VM == "a" && f.VCPU == 1 && errors.Is(f.Err, ErrCallBudget) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no ErrCallBudget fault for the slow vCPU: %v", rep.Faults)
	}
	if !c.VM("a").VCPUs[1].Degraded {
		t.Fatal("slow vCPU not degraded")
	}
}

// TestCallBudgetChain: inside a Step a host call is timed from where the
// last one ended, so each restart of that chain is what keeps time that
// is not the call's own off its budget. One row per restart, each
// verified red with that restart removed:
//   - "retry pause": the lap reset at the end of backoffSleep;
//   - "slow ListVMs": restartLap after ListVMs in syncVMs;
//   - "slow release": restartLap after ClearMax in releaseVCPU;
//   - "adoption after a gap": the between-Steps restart in callStart.
func TestCallBudgetChain(t *testing.T) {
	const budgetUs, stallUs = 5_000, 20_000 // a 10–20 ms stall, far over budget
	stall := platform.FaultPlan{DelayRate: 1, DelayUs: stallUs}
	rig := func(t *testing.T, cfg Config) (*Controller, *platform.Scripted, *platform.FaultyHost) {
		t.Helper()
		inner := newFakeHost()
		inner.AddVM("a", 2, 1200)
		inner.AddVM("b", 1, 1200)
		fh := platform.WithFaults(inner, 1)
		cfg.CallBudgetUs = budgetUs
		c := mustController(t, fh, cfg)
		warmUp(t, c, inner, 2, 300_000)
		return c, inner, fh
	}
	// clean fails t unless the last Step recorded no fault and left every
	// vCPU healthy.
	clean := func(t *testing.T, c *Controller) StepReport {
		t.Helper()
		rep := c.LastReport()
		if len(rep.Faults) != 0 || rep.DegradedVCPUs != 0 {
			t.Fatalf("a stall was charged to the call after it: %s, faults %v", rep.String(), rep.Faults)
		}
		return rep
	}

	t.Run("retry pause", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.RetryBackoffUs = stallUs
		c, inner, fh := rig(t, cfg)
		fh.MustPlan(platform.SiteUsage, platform.FaultPlan{Count: 1})
		warmUp(t, c, inner, 1, 300_000)
		if rep := clean(t, c); rep.Retries != 1 {
			t.Fatalf("retries = %d, want the failed read retried once", rep.Retries)
		}
	})
	t.Run("slow ListVMs", func(t *testing.T) {
		c, inner, fh := rig(t, DefaultConfig())
		inner.AddVM("n", 1, 600) // registered in the sync stage, right after ListVMs
		fh.MustPlan(platform.SiteListVMs, stall)
		warmUp(t, c, inner, 1, 300_000)
		if rep := clean(t, c); !slices.Equal(rep.Added, []string{"n"}) {
			t.Fatalf("added %v, want [n]", rep.Added)
		}
	})
	t.Run("slow release", func(t *testing.T) {
		c, inner, fh := rig(t, DefaultConfig())
		// a shrinks before b grows, in listing order: a's release write
		// runs just before b's new vCPU reads its first usage.
		inner.SetTemplate("a", 1, 1200)
		inner.SetTemplate("b", 2, 1200)
		fh.MustPlan(platform.SiteClearMax, stall)
		warmUp(t, c, inner, 1, 300_000)
		clean(t, c)
		if n := len(c.VM("b").VCPUs); n != 2 {
			t.Fatalf("b tracks %d vCPUs after growing to 2", n)
		}
	})
	t.Run("adoption after a gap", func(t *testing.T) {
		c, inner, _ := rig(t, DefaultConfig())
		inner.AddVM("m", 1, 1200)
		time.Sleep(stallUs * time.Microsecond)
		if err := c.AdoptVM(VMSnapshot{Name: "m",
			VCPUs: []VCPUSnapshot{{Index: 0, CapUs: 300_000, EstimateUs: 300_000}}}); err != nil {
			t.Fatalf("AdoptVM after a gap between Steps: %v", err)
		}
	})
}

// TestRetryPause pins the one pause before a retry: none by default,
// Config.RetryBackoffUs inside a Step, cut at the Step's deadline (half
// the period), and none before the first Step. Kill list, each verified
// red:
//   - drop the deadline cut in backoffSleep ("cut at the deadline");
//   - drop the stepT0 reset in runStages (TestRetryPauseNotBetweenSteps);
//   - sleep the full pause while stepT0 is zero ("not before the first
//     Step");
//   - use PeriodUs in place of PeriodUs / 2 in deadline
//     (TestStepDeadlineOverrun).
func TestRetryPause(t *testing.T) {
	// retriedStep steps once to register VM a, then runs a Step whose
	// first usage read fails once and is retried, and returns its report.
	retriedStep := func(t *testing.T, cfg Config) StepReport {
		t.Helper()
		inner := newFakeHost()
		inner.AddVM("a", 1, 1200)
		fh := platform.WithFaults(inner, 1)
		c := mustController(t, fh, cfg)
		mustStep(t, c)
		fh.MustPlan(platform.SiteUsage, platform.FaultPlan{Count: 1})
		mustStep(t, c)
		rep := c.LastReport()
		if rep.Retries != 1 || rep.DegradedVCPUs != 0 {
			t.Fatalf("want one successful retry: %s (retries %d)", rep.String(), rep.Retries)
		}
		return rep
	}

	t.Run("default retries at once", func(t *testing.T) {
		cfg := DefaultConfig()
		if cfg.RetryBackoffUs != 0 || cfg.CallBudgetUs != 0 || cfg.BreakerThreshold != 0 {
			t.Fatalf("robustness knobs armed by default: %+v", cfg)
		}
		if d := retriedStep(t, cfg).Timings.Total; d >= 50*time.Millisecond {
			t.Fatalf("retried Step took %v with no pause configured", d)
		}
	})
	t.Run("pause inside a Step", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.RetryBackoffUs = 20_000
		if d := retriedStep(t, cfg).Timings.Total; d < 20*time.Millisecond {
			t.Fatalf("retried Step took %v, under its 20ms pause", d)
		}
	})
	t.Run("cut at the deadline", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.PeriodUs = 100_000 // deadline 50 ms
		cfg.RetryBackoffUs = 2_000_000
		d := retriedStep(t, cfg).Timings.Total
		if d < 50*time.Millisecond || d >= time.Second {
			t.Fatalf("retried Step took %v, want the 2s pause cut at the 50ms deadline", d)
		}
	})
	t.Run("not before the first Step", func(t *testing.T) {
		inner := newFakeHost()
		inner.AddVM("m", 1, 1200)
		fh := platform.WithFaults(inner, 1)
		cfg := DefaultConfig()
		cfg.RetryBackoffUs = 2_000_000
		adoptRetried(t, mustController(t, fh, cfg), fh, "m")
	})
}

// TestRetryPauseNotBetweenSteps: a host call made between Steps — here a
// migration's AdoptVM after the first Step — retries without pausing,
// though the last Step's deadline had time left.
func TestRetryPauseNotBetweenSteps(t *testing.T) {
	inner := newFakeHost()
	inner.AddVM("a", 1, 1200)
	fh := platform.WithFaults(inner, 1)
	cfg := DefaultConfig()
	cfg.RetryBackoffUs = 1_000_000
	c := mustController(t, fh, cfg)
	mustStep(t, c)
	inner.AddVM("m", 1, 1200)
	adoptRetried(t, c, fh, "m")
}

// adoptRetried adopts VM name on c with its first usage read failing
// once, and fails t unless the read was retried without a pause.
func adoptRetried(t *testing.T, c *Controller, fh *platform.FaultyHost, name string) {
	t.Helper()
	fh.MustPlan(platform.SiteUsage, platform.FaultPlan{Count: 1})
	calls := fh.Calls(platform.SiteUsage)
	t0 := time.Now()
	if err := c.AdoptVM(VMSnapshot{Name: name,
		VCPUs: []VCPUSnapshot{{Index: 0, CapUs: 300_000, EstimateUs: 300_000}}}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d >= 50*time.Millisecond {
		t.Fatalf("AdoptVM outside a Step took %v: it paused before its retry", d)
	}
	if got := fh.Calls(platform.SiteUsage) - calls; got != 2 {
		t.Fatalf("AdoptVM made %d usage reads, want a failed one and its retry", got)
	}
}

// TestBreakerSnapshotRoundTrip: the breaker state survives JSON encode →
// decode bit-exactly, and a restored controller resumes the quarantine
// mid-window: the VM is re-admitted on exactly the same step schedule
// the dead incarnation would have used.
func TestBreakerSnapshotRoundTrip(t *testing.T) {
	inner := newFakeHost()
	inner.AddVM("a", 1, 1200)
	inner.AddVM("b", 1, 600)
	fh := platform.WithFaults(inner, 11)
	cfg := breakerConfig()
	c := mustController(t, fh, cfg)
	warmUp(t, c, inner, 3, 300_000)

	fh.MustPlan(platform.SiteUsage, platform.FaultPlan{
		Persistent: true,
		Match:      func(vm string, vcpu int) bool { return vm == "a" },
	})
	// Trip (3 steps) plus one quarantined step: OpenLeft is 1 of 2.
	warmUp(t, c, inner, 4, 300_000)
	if st := c.VM("a").Breaker; st.State != BreakerOpen || st.OpenLeft != 1 {
		t.Fatalf("breaker mid-quarantine = %+v", st)
	}

	snap := c.Snapshot()
	raw, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	raw2, err := decoded.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(raw2) {
		t.Fatal("snapshot with breaker state does not round-trip bit-identically")
	}

	// Kill and restore. The fault plan is still armed, but the restored
	// controller must not read the quarantined VM anyway.
	c2 := mustController(t, fh, cfg)
	if _, err := c2.Restore(decoded); err != nil {
		t.Fatal(err)
	}
	if st := c2.VM("a").Breaker; st.State != BreakerOpen || st.OpenLeft != 1 {
		t.Fatalf("restored breaker = %+v, want open with 1 step left", st)
	}
	// One more step drains the quarantine window; then the host
	// recovers and two probes re-admit — the same schedule the dead
	// controller was on.
	warmUp(t, c2, inner, 1, 300_000)
	if st := c2.VM("a").Breaker; st.State != BreakerHalfOpen {
		t.Fatalf("restored breaker after final quarantine step = %+v", st)
	}
	fh.Clear(platform.SiteUsage)
	warmUp(t, c2, inner, 2, 300_000)
	if st := c2.VM("a").Breaker; st.State != BreakerClosed {
		t.Fatalf("restored breaker after probes = %+v", st)
	}
	if v := c2.VM("a").VCPUs[0]; v.Degraded || v.FailedSteps != 0 {
		t.Fatalf("restored vCPU not re-admitted: %+v", v)
	}
}

// TestRecoveryStreakSurvivesRestore (the checkpoint/restore ×
// degradation satellite): a degraded vCPU's FailedSteps counter survives
// a kill-and-restore while a fault plan is still active elsewhere, and
// the first clean Step after the restore resets it, counted once as
// Recovered — restore neither forgets the fault history nor delays the
// recovery.
func TestRecoveryStreakSurvivesRestore(t *testing.T) {
	inner := newFakeHost()
	inner.AddVM("a", 1, 1200)
	inner.AddVM("b", 1, 600)
	fh := platform.WithFaults(inner, 11)
	cfg := DefaultConfig()
	cfg.HostRetries = 0
	c := mustController(t, fh, cfg)
	warmUp(t, c, inner, 3, 300_000)

	// Degrade a/0 for two steps — and keep a fault plan active against
	// b/0 the whole time, including across the restore boundary.
	fh.MustPlan(platform.SiteUsage, platform.FaultPlan{
		Count: 2,
		Match: func(vm string, vcpu int) bool { return vm == "a" },
	})
	fh.MustPlan(platform.SiteSetMax, platform.FaultPlan{
		Persistent: true,
		Match:      func(vm string, vcpu int) bool { return vm == "b" },
	})
	warmUp(t, c, inner, 2, 300_000) // a degraded twice
	v := c.VM("a").VCPUs[0]
	if !v.Degraded || v.FailedSteps != 2 {
		t.Fatalf("pre-checkpoint state = %+v, want degraded with FailedSteps 2", v)
	}

	snap, err := c.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	c2 := mustController(t, fh, cfg)
	if _, err := c2.Restore(decoded); err != nil {
		t.Fatal(err)
	}
	if v2 := c2.VM("a").VCPUs[0]; !v2.Degraded || v2.FailedSteps != 2 {
		t.Fatalf("restore reset the fault history: %+v, want degraded with FailedSteps 2", v2)
	}

	// The first clean Step after the restore recovers the vCPU.
	warmUp(t, c2, inner, 1, 300_000)
	rep := c2.LastReport()
	if rep.Recovered != 1 {
		t.Fatalf("first clean step after restore did not recover a/0: %s", rep.String())
	}
	if v2 := c2.VM("a").VCPUs[0]; v2.Degraded || v2.FailedSteps != 0 {
		t.Fatalf("post-recovery counters = %+v", v2)
	}
	// The b-side plan fired across the boundary: the fault environment
	// really was live the whole time.
	if fh.Injected(platform.SiteSetMax) == 0 {
		t.Fatal("the standing fault plan never fired; the test lost its premise")
	}
}
