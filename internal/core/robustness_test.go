package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"vfreq/internal/platform"
)

// newFlaky is a fake host under the fault wrapper, for failure injection:
// a real host can race VM teardown with the controller (cgroups vanish
// between ListVMs and the usage read). The tests script the first and arm
// always plans on the second.
func newFlaky() (*platform.Scripted, *platform.FaultyHost) {
	h := newFakeHost()
	return h, platform.WithFaults(h, 1)
}

// always fails every call at its site until the plan is cleared.
var always = platform.FaultPlan{Persistent: true}

// Per-vCPU host failures no longer abort the step: Step succeeds, the
// vCPU degrades and the fault lands in the StepReport. Only a failing
// ListVMs — the host is unreachable — surfaces as a Step error.
func TestStepSurfacesHostErrors(t *testing.T) {
	cases := []struct {
		name  string
		site  platform.FaultSite
		stage string
	}{
		{"list", platform.SiteListVMs, ""},
		{"usage", platform.SiteUsage, "monitor"},
		{"tid", platform.SiteThreadID, "monitor"},
		{"lastcpu", platform.SiteLastCPU, "monitor"},
		{"freq", platform.SiteCoreFreq, "monitor"},
		{"setmax", platform.SiteSetMax, "apply"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, fh := newFlaky()
			h.AddVM("a", 1, 1200)
			c := mustController(t, fh, DefaultConfig())
			if err := c.Step(); err != nil { // clean first step
				t.Fatal(err)
			}
			h.Consume("a", 0, 500_000)
			fh.MustPlan(tc.site, always)
			err := c.Step()
			if tc.name == "list" {
				if !errors.Is(err, platform.ErrInjected) {
					t.Fatalf("Step err = %v, want injected failure", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Step err = %v, want fault-isolated success", err)
			}
			rep := c.LastReport()
			if rep.DegradedVCPUs != 1 {
				t.Fatalf("DegradedVCPUs = %d, want 1", rep.DegradedVCPUs)
			}
			if rep.FaultCount() == 0 {
				t.Fatal("no fault recorded")
			}
			f := rep.Faults[0]
			if f.Stage != tc.stage || !errors.Is(f.Err, platform.ErrInjected) {
				t.Fatalf("fault = %+v, want stage %q wrapping injected error", f, tc.stage)
			}
		})
	}
}

// After a degraded step, recovery must be clean: monitoring commits
// atomically, so the failed step leaves the usage bookkeeping untouched
// and the recovery step absorbs the full accumulated delta.
func TestRecoveryAfterFailedStep(t *testing.T) {
	h, fh := newFlaky()
	h.AddVM("a", 1, 1200)
	c := mustController(t, fh, DefaultConfig())
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	h.Consume("a", 0, 300_000)
	fh.MustPlan(platform.SiteCoreFreq, always)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if !c.VM("a").VCPUs[0].Degraded {
		t.Fatal("vCPU not degraded after failed monitor")
	}
	fh.Clear(platform.SiteCoreFreq)
	h.Consume("a", 0, 400_000)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	v := c.VM("a").VCPUs[0]
	if v.Degraded {
		t.Fatal("vCPU still degraded after clean step")
	}
	// The degraded step committed nothing, so the recovery step sees
	// the full 700000 delta and the cumulative bookkeeping matches the
	// host counter.
	if v.PrevUsageUs != 700_000 {
		t.Fatalf("PrevUsageUs = %d, want 700000", v.PrevUsageUs)
	}
	if v.LastU != 700_000 {
		t.Fatalf("LastU = %d, want 700000", v.LastU)
	}
}

// A VM that disappears between steps is dropped without error, and its
// reappearance is treated as a fresh VM (warm start).
func TestVMChurn(t *testing.T) {
	h := newFakeHost()
	c := mustController(t, h, DefaultConfig())
	h.AddVM("a", 2, 500)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	// Disappear.
	h.RemoveVM("a")
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if c.VM("a") != nil {
		t.Fatal("departed VM still tracked")
	}
	// Reappear with accumulated usage; must not be misread as a huge
	// consumption delta.
	h.AddVM("a", 2, 500)
	h.Consume("a", 0, 5_000_000)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if got := c.VM("a").VCPUs[0].LastU; got != 0 {
		t.Fatalf("reappeared VM LastU = %d, want 0 (warm)", got)
	}
	h.Consume("a", 0, 250_000)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if got := c.VM("a").VCPUs[0].LastU; got != 250_000 {
		t.Fatalf("post-warm LastU = %d, want 250000", got)
	}
}

// Property: for arbitrary consumption sequences and placements —
// oversubscribed ones (Eq. 7 violated) included — the controller passes
// Check after every step.
func TestQuickControllerInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := newFakeHost()
		nVMs := rng.Intn(4) + 1
		for i := 0; i < nVMs; i++ {
			h.AddVM(fmt.Sprintf("vm%d", i), rng.Intn(3)+1,
				int64(rng.Intn(2300)+100))
		}
		c, err := New(readableQuotas{h}, DefaultConfig())
		if err != nil {
			return false
		}
		for step := 0; step < 25; step++ {
			for _, info := range vmsOf(h) {
				for j := 0; j < info.VCPUs; j++ {
					h.Consume(info.Name, j, int64(rng.Intn(1_000_001)))
				}
			}
			if err := c.Step(); err != nil {
				return false
			}
			if err := c.Check(); err != nil {
				t.Logf("seed %d step %d: %v", seed, step, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the guarantee is never starved — a saturated vCPU's cap never
// drops below C_i once its history is warm, regardless of what the other
// VMs do.
func TestQuickGuaranteeNeverStarved(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := newFakeHost()
		h.AddVM("victim", 1, 1200) // C_i = 500000
		h.AddVM("noise", 2, 600)
		c, err := New(h, DefaultConfig())
		if err != nil {
			return false
		}
		for step := 0; step < 20; step++ {
			// The victim always consumes exactly its cap
			// (saturated); the noise VM consumes randomly.
			var victimCap int64 = 500_000
			if st := c.VM("victim"); st != nil {
				victimCap = st.VCPUs[0].CapUs
			}
			h.Consume("victim", 0, victimCap)
			h.Consume("noise", 0, int64(rng.Intn(1_000_001)))
			h.Consume("noise", 1, int64(rng.Intn(1_000_001)))
			if err := c.Step(); err != nil {
				return false
			}
			if step < 3 {
				continue // warm-up and convergence
			}
			if got := c.VM("victim").VCPUs[0].CapUs; got < 500_000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// An oversubscribed placement (Eq. 7 violated upstream) must not panic;
// guarantees degrade but caps stay sane.
func TestOversubscribedGuarantees(t *testing.T) {
	h := newFakeHost() // 4 cores, capacity 4e6
	// Guarantees: 3 VMs × 2 vCPUs × 2400 MHz = 6e6 > 4e6.
	for i := 0; i < 3; i++ {
		h.AddVM(fmt.Sprintf("big%d", i), 2, 2400)
	}
	c := mustController(t, h, DefaultConfig())
	for step := 0; step < 10; step++ {
		for i := 0; i < 3; i++ {
			h.Consume(fmt.Sprintf("big%d", i), 0, 900_000)
			h.Consume(fmt.Sprintf("big%d", i), 1, 900_000)
		}
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for _, st := range c.VMs() {
		for _, v := range st.VCPUs {
			if v.CapUs < 0 || v.CapUs > c.Config().PeriodUs {
				t.Fatalf("cap %d out of range", v.CapUs)
			}
		}
	}
}

// Config with a different control period: guarantees and quotas scale.
func TestNonStandardPeriod(t *testing.T) {
	h := newFakeHost()
	cfg := DefaultConfig()
	cfg.PeriodUs = 250_000 // 250 ms control period
	cfg.CgroupPeriodUs = 50_000
	cfg.WindowUs = 2_500
	c := mustController(t, h, cfg)
	h.AddVM("a", 1, 1200)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	// C_i = 250000 × 1200/2400 = 125000.
	if got := c.VM("a").GuaranteeUs; got != 125_000 {
		t.Fatalf("guarantee = %d, want 125000", got)
	}
	h.Consume("a", 0, 125_000)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	q := quotaOf(h, "a", 0)
	if q[1] != 50_000 {
		t.Fatalf("quota period = %d, want 50000", q[1])
	}
	if q[0] <= 0 || q[0] > 50_000 {
		t.Fatalf("quota = %d out of range", q[0])
	}
}

// Zero-vCPU guard: a host reporting a VM with no vCPUs is tolerated.
func TestVMWithNoVCPUs(t *testing.T) {
	h := newFakeHost()
	h.AddVM("ghost", 0, 500)
	c := mustController(t, h, DefaultConfig())
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if st := c.VM("ghost"); st == nil || len(st.VCPUs) != 0 {
		t.Fatal("ghost VM handling wrong")
	}
}
