package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"vfreq/internal/platform"
)

// warmUp runs clean steps in which every listed vCPU consumes usPerStep;
// enough of them fill the history and settle the caps.
func warmUp(t *testing.T, c *Controller, h *platform.Scripted, steps int, usPerStep int64) {
	t.Helper()
	for i := 0; i < steps; i++ {
		for _, info := range vmsOf(h) {
			for j := 0; j < info.VCPUs; j++ {
				h.Consume(info.Name, j, usPerStep)
			}
		}
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// A transient fault that fits inside the retry budget is invisible: the
// step reports a retry but no degradation.
func TestRetryMasksTransientFault(t *testing.T) {
	inner := newFakeHost()
	inner.AddVM("a", 1, 1200)
	fh := platform.WithFaults(inner, 7)
	c := mustController(t, fh, DefaultConfig()) // HostRetries = 1
	warmUp(t, c, inner, 2, 300_000)
	fh.MustPlan(platform.SiteUsage, platform.FaultPlan{Count: 1})
	inner.Consume("a", 0, 300_000)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	rep := c.LastReport()
	if rep.DegradedVCPUs != 0 || rep.FaultCount() != 0 {
		t.Fatalf("transient fault not masked: %s", rep.String())
	}
	if rep.Retries != 1 {
		t.Fatalf("Retries = %d, want 1", rep.Retries)
	}
	if fh.Injected(platform.SiteUsage) != 1 {
		t.Fatalf("injected = %d", fh.Injected(platform.SiteUsage))
	}
}

// A persistent per-vCPU fault degrades only that vCPU: its cap is held at
// the last-known-good value while healthy vCPUs keep receiving fresh
// quotas, and the step still succeeds.
func TestPersistentFaultHoldsLastGoodCap(t *testing.T) {
	inner := newFakeHost()
	inner.AddVM("a", 2, 1200)
	fh := platform.WithFaults(inner, 7)
	c := mustController(t, fh, DefaultConfig())
	warmUp(t, c, inner, 3, 300_000)
	held := c.VM("a").VCPUs[1].CapUs
	applied := inner.SetMaxCalls

	fh.MustPlan(platform.SiteUsage, platform.FaultPlan{
		Persistent: true,
		Match:      func(vm string, vcpu int) bool { return vm == "a" && vcpu == 1 },
	})
	for i := 0; i < 3; i++ {
		inner.Consume("a", 0, 900_000)
		inner.Consume("a", 1, 900_000)
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
		rep := c.LastReport()
		if rep.DegradedVCPUs != 1 || rep.HealthyVCPUs != 1 {
			t.Fatalf("step %d: degraded/healthy = %d/%d", i, rep.DegradedVCPUs, rep.HealthyVCPUs)
		}
		if !errors.Is(rep.Faults[0].Err, platform.ErrInjected) {
			t.Fatalf("fault not the injected one: %v", rep.Faults[0])
		}
		if got := c.VM("a").VCPUs[1].CapUs; got != held {
			t.Fatalf("degraded cap moved: %d, want held %d", got, held)
		}
	}
	if c.VM("a").VCPUs[1].FailedSteps != 3 {
		t.Fatalf("FailedSteps = %d, want 3", c.VM("a").VCPUs[1].FailedSteps)
	}
	// The healthy vCPU kept getting quota writes (one per step).
	if inner.SetMaxCalls < applied+3 {
		t.Fatalf("healthy vCPU starved of quota writes: %d → %d", applied, inner.SetMaxCalls)
	}
	// Recovery: clear the plan and the vCPU rejoins the loop.
	fh.Clear(platform.SiteUsage)
	inner.Consume("a", 1, 900_000)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	v := c.VM("a").VCPUs[1]
	if v.Degraded || v.FailedSteps != 0 {
		t.Fatalf("vCPU did not recover: %+v", v)
	}
	if c.LastReport().DegradedVCPUs != 0 {
		t.Fatal("report still shows degradation after recovery")
	}
}

// Conservation under partial failure: whatever subset of vCPUs degrades,
// the controller passes Check (the market subtracts held caps like any
// other allocation).
func TestConservationUnderPartialFailure(t *testing.T) {
	inner := newFakeHost()
	inner.AddVM("a", 2, 1200)
	inner.AddVM("b", 1, 600)
	inner.AddVM("c", 1, 1800)
	fh := platform.WithFaults(readableQuotas{inner}, 99)
	cfg := DefaultConfig()
	cfg.HostRetries = 0 // let every injected fault land
	c := mustController(t, fh, cfg)
	fh.MustPlan(platform.SiteUsage, platform.FaultPlan{Rate: 0.3})
	fh.MustPlan(platform.SiteSetMax, platform.FaultPlan{Rate: 0.3})
	rng := rand.New(rand.NewSource(5))
	sawDegraded := false
	for step := 0; step < 30; step++ {
		for _, info := range vmsOf(inner) {
			for j := 0; j < info.VCPUs; j++ {
				inner.Consume(info.Name, j, int64(rng.Intn(1_000_001)))
			}
		}
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
		if c.LastReport().Degraded() {
			sawDegraded = true
		}
		if err := c.Check(); err != nil {
			t.Fatalf("step %d under partial failure: %v", step, err)
		}
	}
	if !sawDegraded {
		t.Fatal("fault rate 0.3 over 30 steps never degraded a vCPU")
	}
}

// Live template-frequency change: the Eq. 2 guarantee follows on the next
// Step (regression: it used to stick to the admission-time value).
func TestReconcileFrequencyChange(t *testing.T) {
	h := newFakeHost()
	c := mustController(t, h, DefaultConfig())
	h.AddVM("a", 1, 1200)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if got := c.VM("a").GuaranteeUs; got != 500_000 {
		t.Fatalf("guarantee = %d, want 500000", got)
	}
	h.SetTemplate("a", 1, 600)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if got := c.VM("a").GuaranteeUs; got != 250_000 {
		t.Fatalf("guarantee after downgrade = %d, want 250000", got)
	}
	rep := c.LastReport()
	if len(rep.Reconfigured) != 1 || rep.Reconfigured[0] != "a" {
		t.Fatalf("Reconfigured = %v, want [a]", rep.Reconfigured)
	}
}

// A frequency change above F_MAX is re-validated on reconcile (regression:
// the check used to run only at admission): the change is rejected, the
// last-known-good template held, and the fault reported.
func TestReconcileRejectsInfeasibleFrequencyChange(t *testing.T) {
	h := newFakeHost()
	c := mustController(t, h, DefaultConfig())
	h.AddVM("a", 1, 1200)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	h.SetTemplate("a", 1, 5000) // above 2400 F_MAX
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	st := c.VM("a")
	if st.GuaranteeUs != 500_000 || st.Info.FreqMHz != 1200 {
		t.Fatalf("infeasible change applied: guarantee %d, freq %d",
			st.GuaranteeUs, st.Info.FreqMHz)
	}
	rep := c.LastReport()
	if rep.FaultCount() != 1 || rep.Faults[0].Op != "template" {
		t.Fatalf("faults = %+v, want one template fault", rep.Faults)
	}
}

// Live vCPU-count change: the tracked slice grows (warm registration) and
// shrinks (with quota release) to follow the host (regression: it used to
// stay at the admission-time length).
func TestReconcileVCPUGrowShrink(t *testing.T) {
	h := newFakeHost()
	c := mustController(t, h, DefaultConfig())
	h.AddVM("a", 2, 1200)
	warmUp(t, c, h, 2, 300_000)
	// Grow 2 → 4.
	h.SetTemplate("a", 4, 1200)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	st := c.VM("a")
	if len(st.VCPUs) != 4 {
		t.Fatalf("len(VCPUs) = %d after grow, want 4", len(st.VCPUs))
	}
	if st.VCPUs[3].CapUs != st.GuaranteeUs {
		t.Fatalf("new vCPU cap = %d, want guarantee %d", st.VCPUs[3].CapUs, st.GuaranteeUs)
	}
	// Shrink 4 → 1: trailing quotas are released.
	h.SetTemplate("a", 1, 1200)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if got := len(c.VM("a").VCPUs); got != 1 {
		t.Fatalf("len(VCPUs) = %d after shrink, want 1", got)
	}
	want := map[platform.VCPURef]bool{{VM: "a", VCPU: 1}: true, {VM: "a", VCPU: 2}: true, {VM: "a", VCPU: 3}: true}
	for _, ref := range h.Cleared {
		delete(want, ref)
	}
	if len(want) != 0 {
		t.Fatalf("shrink left quotas behind: %v (cleared %v)", want, h.Cleared)
	}
}

// A partial growth (initial read fails for one new vCPU) stops at that
// index and is completed on a later step.
func TestReconcilePartialGrowthRetries(t *testing.T) {
	h, fh := newFlaky()
	c := mustController(t, fh, DefaultConfig())
	h.AddVM("a", 1, 1200)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	h.SetTemplate("a", 3, 1200)
	// vCPU 2 has no usage file yet → read fails
	fh.MustPlan(platform.SiteUsage, platform.FaultPlan{
		Persistent: true,
		Match:      func(vm string, vcpu int) bool { return vcpu == 2 },
	})
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if got := len(c.VM("a").VCPUs); got != 2 {
		t.Fatalf("len(VCPUs) = %d after partial grow, want 2", got)
	}
	if c.LastReport().FaultCount() == 0 {
		t.Fatal("partial growth not reported")
	}
	fh.Clear(platform.SiteUsage) // the file appears
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if got := len(c.VM("a").VCPUs); got != 3 {
		t.Fatalf("len(VCPUs) = %d after retry, want 3", got)
	}
}

// VM departure resets the vCPU cgroups to an unlimited quota
// (regression: quotas used to outlive the VM, throttling any later
// VM that reused the cgroup path).
func TestDepartureReleasesQuotas(t *testing.T) {
	h := newFakeHost()
	c := mustController(t, h, DefaultConfig())
	h.AddVM("a", 2, 1200)
	warmUp(t, c, h, 2, 300_000)
	h.Unlist("a") // the cgroups stay, to be looked at
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2; j++ {
		if q := h.VCPU("a", j).QuotaUs; q != platform.NoQuota {
			t.Fatalf("vCPU %d quota %d survived departure", j, q)
		}
	}
	rep := c.LastReport()
	if len(rep.Removed) != 1 || rep.Removed[0] != "a" {
		t.Fatalf("Removed = %v, want [a]", rep.Removed)
	}
}

// In monitoring-only mode (execution A) no departure cleanup writes
// happen either — the controller never touched the cgroups.
func TestDepartureWritesNothingWithoutControl(t *testing.T) {
	h := newFakeHost()
	cfg := DefaultConfig()
	cfg.ControlEnabled = false
	c := mustController(t, h, cfg)
	h.AddVM("a", 1, 1200)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	h.RemoveVM("a")
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if len(h.Cleared) != 0 {
		t.Fatalf("monitoring-only departure cleared %v", h.Cleared)
	}
}

// The report's fault list is bounded; the overflow is counted instead of
// stored.
func TestStepReportFaultCap(t *testing.T) {
	h, fh := newFlaky()
	cfg := DefaultConfig()
	cfg.HostRetries = 0
	c := mustController(t, fh, cfg)
	for i := 0; i < 40; i++ {
		h.AddVM(fmt.Sprintf("vm%d", i), 4, 500)
	}
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	// Every usage file disappears: 160 monitor faults in one step.
	fh.MustPlan(platform.SiteUsage, always)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	rep := c.LastReport()
	if len(rep.Faults) != maxFaultsPerStep {
		t.Fatalf("stored faults = %d, want capped %d", len(rep.Faults), maxFaultsPerStep)
	}
	if rep.FaultCount() != 160 {
		t.Fatalf("FaultCount = %d, want 160", rep.FaultCount())
	}
	if rep.DegradedVCPUs != 160 || rep.HealthyVCPUs != 0 {
		t.Fatalf("degraded/healthy = %d/%d", rep.DegradedVCPUs, rep.HealthyVCPUs)
	}
}

// TestSeededFaultRunReplaysAtDefault: Rate and DelayRate plans draw from
// the injector's one seeded rng in the order host calls arrive, and the
// serial monitor makes that order a function of the inputs alone — so
// two runs from one seed agree on every report and checkpoint with no
// knob set.
func TestSeededFaultRunReplaysAtDefault(t *testing.T) {
	type run struct {
		inner *platform.Scripted
		ctrl  *Controller
	}
	var runs [2]run
	for i := range runs {
		inner := platform.NewScripted(platform.NodeInfo{Name: "fake", Cores: 8, MaxFreqMHz: 2400})
		for v := 0; v < 6; v++ {
			inner.AddVM(fmt.Sprintf("vm%d", v), 2, 1200)
		}
		fh := platform.WithFaults(inner, 42)
		for _, site := range []platform.FaultSite{platform.SiteUsage, platform.SiteThreadID,
			platform.SiteLastCPU, platform.SiteCoreFreq} {
			fh.MustPlan(site, platform.FaultPlan{Rate: 0.1, DelayRate: 0.02, DelayUs: 20})
		}
		runs[i] = run{inner, mustController(t, fh, DefaultConfig())}
	}
	var reps [2]StepReport
	var snaps [2]Snapshot
	degraded, retries := 0, 0
	for step := int64(1); step <= 200; step++ {
		for i, r := range runs {
			for v, info := range vmsOf(r.inner) {
				for j := 0; j < info.VCPUs; j++ {
					// Per-vCPU-distinct, crossing both triggers over the run.
					r.inner.Consume(info.Name, j, (step*97_000+int64(v)*53_000+int64(j)*31_000)%1_000_000)
				}
			}
			if err := r.ctrl.Step(); err != nil {
				t.Fatal(err)
			}
			reps[i] = r.ctrl.LastReport()
			snaps[i] = r.ctrl.Snapshot()
			// Wall-clock stage timings are the one legitimate difference.
			snaps[i].StepMicros, snaps[i].MonitorMicros = 0, 0
		}
		if a, b := reportSummary(reps[0]), reportSummary(reps[1]); a != b {
			t.Fatalf("step %d reports diverged:\n%s\n%s", step, a, b)
		}
		if !reflect.DeepEqual(snaps[0], snaps[1]) {
			t.Fatalf("step %d checkpoints diverged:\n%+v\n%+v", step, snaps[0], snaps[1])
		}
		degraded += reps[0].DegradedVCPUs
		retries += reps[0].Retries
	}
	if degraded == 0 || retries == 0 {
		t.Fatalf("plans never bit (degraded %d, retries %d); the test lost its teeth", degraded, retries)
	}
}

// TestHostCallPolicy pins the one host-call policy on each of the six
// ops, counting attempts at the fault wrapper's call sites.
func TestHostCallPolicy(t *testing.T) {
	ops := []struct {
		op   hostOp
		name string
		site platform.FaultSite
		i    int
		want int64 // value of a clean read on the host below
	}{
		{opUsage, "usage", platform.SiteUsage, 0, 123},
		{opTID, "tid", platform.SiteThreadID, 0, 1},
		{opLastCPU, "lastcpu", platform.SiteLastCPU, 1, 3},
		{opFreq, "freq", platform.SiteCoreFreq, 3, 2400},
		{opSetMax, "setmax", platform.SiteSetMax, 0, 0},
	}
	for _, o := range ops {
		t.Run(o.name, func(t *testing.T) {
			if o.op.String() != o.name {
				t.Fatalf("op renders %q, want %q", o.op, o.name)
			}
			run := func(retries int, budgetUs int64, plan platform.FaultPlan) (int64, bool, error, int) {
				inner := newFakeHost()
				inner.AddVM("a", 1, 1200)
				inner.Consume("a", 0, 123)
				inner.VCPU("a", 0).LastCPU = 3 // on the host's first thread, tid 1
				fh := platform.WithFaults(inner, 1)
				cfg := DefaultConfig()
				cfg.HostRetries = retries
				cfg.CallBudgetUs = budgetUs
				c := mustController(t, fh, cfg)
				fh.MustPlan(o.site, plan)
				val, retried, err := c.hostCall(o.op, "a", o.i, 50_000, 100_000)
				return val, retried, err, fh.Calls(o.site)
			}

			val, retried, err, calls := run(1, 0, platform.FaultPlan{Count: 1})
			if err != nil || !retried || calls != 2 || val != o.want {
				t.Fatalf("fail-then-succeed: val=%d retried=%v err=%v calls=%d, want %d true nil 2", val, retried, err, calls, o.want)
			}
			_, retried, err, calls = run(3, 200, platform.FaultPlan{DelayRate: 1, DelayUs: 4_000})
			if err != ErrCallBudget || retried || calls != 1 {
				t.Fatalf("blown budget: retried=%v err=%v calls=%d, want false ErrCallBudget 1", retried, err, calls)
			}
			_, retried, err, calls = run(0, 0, platform.FaultPlan{Persistent: true})
			if !errors.Is(err, platform.ErrInjected) || retried || calls != 1 {
				t.Fatalf("HostRetries=0: retried=%v err=%v calls=%d, want false ErrInjected 1", retried, err, calls)
			}
		})
	}
}
