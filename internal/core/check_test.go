package core

import (
	"strings"
	"testing"

	"vfreq/internal/platform"
)

// TestCheck feeds Check corrupted states it must reject, each by the
// clause that names it, and states at the edges of every clause it must
// accept — the saturated degraded hold among them, reached through Step.
//
// Kill list. Each mutation of check.go below turns this test red:
//
//  1. drop the report-split clause;
//  2. drop the cap clause, or weaken `v.CapUs > c.cfg.PeriodUs` to `>=`,
//     or `v.CapUs < 0` to `<= 0`;
//  3. drop the estimate clause, or weaken `v.EstUs > c.cfg.PeriodUs` to
//     `>=`, or `v.EstUs < 0` to `<= 0`;
//  4. drop the negative-wallet clause, or weaken `st.CreditUs < 0` to
//     `<= 0`;
//  5. drop the credit-cap clause, or weaken `st.CreditUs > bound` to `>=`;
//  6. drop the Eq. 6 clause, or weaken `sum > c.CapacityUs()` to `>=`;
//  7. make Eq. 6 unconditional (reject whenever the sum passes capacity);
//  8. bound a healthy cap by C_i alone instead of min(e, C_i);
//  9. drop `!v.Degraded` from the Eq. 6 clause;
//  10. drop the adopted skip from the Eq. 6 sweep;
//  11. read an adopted VM's cgroups;
//  12. drop the cgroup clause, or its period comparison;
//  13. read cgroups with control off;
//  14. read cgroups after a Step that failed whole;
//  15. read through the fault wrapper instead of beneath it;
//  16. drop the checkpoint clause;
//  17. drop the name-index length comparison, or the index lookup;
//  18. drop either half of the owner clause (`v.vm != st`, `v.VM != name`);
//  19. leave `vm` unset in newVCPUState (cold registration, the reconcile
//     grow) or in snapshotVCPU (AdoptVM, Restore).
func TestCheck(t *testing.T) {
	// Every case starts from checkNode after three steps at 300 000 µs
	// per vCPU: both caps settle at 315 790, under capacity.
	vcpu := func(c *Controller, vm string) *VCPUState { return c.VM(vm).VCPUs[0] }
	for _, tc := range []struct {
		name string
		ctl  bool // control off
		edit func(t *testing.T, c *Controller, h *platform.Scripted, fh *platform.FaultyHost)
		want string // substring of the rejection; "" = accepted
	}{
		{name: "settled"},
		{name: "boundaries", edit: func(t *testing.T, c *Controller, h *platform.Scripted, _ *platform.FaultyHost) {
			// Σcaps = capacity, cap = estimate = period, wallet at its
			// cap; and zero cap, estimate and wallet.
			a, b := vcpu(c, "a"), vcpu(c, "b")
			a.CapUs, a.EstUs, c.VM("a").CreditUs = c.cfg.PeriodUs, c.cfg.PeriodUs, c.cfg.CreditCapPeriods*c.VM("a").GuaranteeUs
			b.CapUs, b.EstUs, c.VM("b").CreditUs = 0, 0, 0
			writeQuotas(c, h)
		}},
		{name: "saturated degraded hold", edit: func(t *testing.T, c *Controller, h *platform.Scripted, fh *platform.FaultyHost) {
			// a buys what idle b leaves, then degrades and holds it; b
			// wakes and takes its guarantee from an empty market.
			for i := 0; i < 8; i++ {
				h.Consume("a", 0, 1_000_000)
				mustStep(t, c)
			}
			fh.MustPlan(platform.SiteUsage, platform.FaultPlan{
				Persistent: true,
				Match:      func(vm string, _ int) bool { return vm == "a" },
			})
			for i := 0; i < 15; i++ {
				h.Consume("b", 0, 1_000_000)
				mustStep(t, c)
			}
			a, b := vcpu(c, "a"), vcpu(c, "b")
			if !a.Degraded || b.CapUs != c.VM("b").GuaranteeUs || a.CapUs+b.CapUs <= c.CapacityUs() {
				t.Fatalf("not the saturated hold: a %+v, b %+v", a, b)
			}
		}},
		{name: "adopted, not yet stepped", edit: func(t *testing.T, c *Controller, h *platform.Scripted, _ *platform.FaultyHost) {
			a := vcpu(c, "a")
			a.CapUs, a.EstUs = 600_000, 700_000 // bought 100 000 at auction
			writeQuotas(c, h)
			h.AddVM("c", 1, 1200)
			if err := c.AdoptVM(VMSnapshot{Name: "c",
				VCPUs: []VCPUSnapshot{{Index: 0, CapUs: 900_000, EstimateUs: 900_000}}}); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "grown by a reconcile", edit: func(t *testing.T, c *Controller, h *platform.Scripted, _ *platform.FaultyHost) {
			h.SetTemplate("a", 2, 1200)
			mustStep(t, c)
			if len(c.VM("a").VCPUs) != 2 {
				t.Fatal("a did not grow")
			}
		}},
		{name: "restored", edit: func(t *testing.T, c *Controller, _ *platform.Scripted, fh *platform.FaultyHost) {
			twin := mustController(t, fh, c.cfg)
			if _, err := twin.Restore(c.Snapshot()); err != nil {
				t.Fatal(err)
			}
			*c = *twin // Check the restored twin
		}},
		{name: "control off", ctl: true},
		{name: "step failed after the host moved", edit: func(t *testing.T, c *Controller, h *platform.Scripted, fh *platform.FaultyHost) {
			fh.MustPlan(platform.SiteListVMs, always)
			h.RemoveVM("b")
			if err := c.Step(); err == nil {
				t.Fatal("Step succeeded with ListVMs failing")
			}
		}},
		{name: "quota reads faulted", edit: func(t *testing.T, _ *Controller, _ *platform.Scripted, fh *platform.FaultyHost) {
			fh.MustPlan(platform.SiteReadMax, always)
		}},

		{name: "name index holds an untracked VM", want: "name index holds 3 VMs", edit: func(t *testing.T, c *Controller, _ *platform.Scripted, _ *platform.FaultyHost) {
			c.vms["ghost"] = c.VM("a")
		}},
		{name: "name index swapped", want: "name index maps a", edit: func(t *testing.T, c *Controller, _ *platform.Scripted, _ *platform.FaultyHost) {
			c.vms["a"], c.vms["b"] = c.vms["b"], c.vms["a"]
		}},
		{name: "vCPU owned by another VM", want: "a/vcpu0 is owned by another VM", edit: func(t *testing.T, c *Controller, _ *platform.Scripted, _ *platform.FaultyHost) {
			vcpu(c, "a").vm = c.VM("b")
		}},
		{name: "vCPU named for another VM", want: "a/vcpu0 is owned by another VM", edit: func(t *testing.T, c *Controller, _ *platform.Scripted, _ *platform.FaultyHost) {
			vcpu(c, "a").VM = "b"
		}},
		{name: "cap above period", want: "cap 1000001 outside", edit: func(t *testing.T, c *Controller, _ *platform.Scripted, _ *platform.FaultyHost) {
			vcpu(c, "a").CapUs = c.cfg.PeriodUs + 1
		}},
		{name: "estimate above period", want: "estimate 1000001 outside", edit: func(t *testing.T, c *Controller, _ *platform.Scripted, _ *platform.FaultyHost) {
			vcpu(c, "a").EstUs = c.cfg.PeriodUs + 1
		}},
		{name: "negative wallet", want: "wallet -1 is negative", edit: func(t *testing.T, c *Controller, _ *platform.Scripted, _ *platform.FaultyHost) {
			c.VM("a").CreditUs = -1
		}},
		{name: "wallet above its cap", want: "above its credit cap", edit: func(t *testing.T, c *Controller, _ *platform.Scripted, _ *platform.FaultyHost) {
			c.VM("a").CreditUs = c.cfg.CreditCapPeriods*c.VM("a").GuaranteeUs + 1
		}},
		{name: "oversubscribed, healthy cap above its guarantee", want: "(Eq. 6)", edit: func(t *testing.T, c *Controller, _ *platform.Scripted, _ *platform.FaultyHost) {
			for _, vm := range []string{"a", "b"} {
				vcpu(c, vm).CapUs, vcpu(c, vm).EstUs = 600_000, 600_000
			}
		}},
		{name: "oversubscribed, healthy cap above its estimate", want: "(Eq. 6)", edit: func(t *testing.T, c *Controller, _ *platform.Scripted, _ *platform.FaultyHost) {
			a, b := vcpu(c, "a"), vcpu(c, "b")
			a.CapUs, a.Degraded = 900_000, true
			b.CapUs, b.EstUs = 400_000, 300_000
		}},
		{name: "wrong quota", want: "cgroup holds quota", edit: func(t *testing.T, _ *Controller, h *platform.Scripted, _ *platform.FaultyHost) {
			h.VCPU("b", 0).QuotaUs++
		}},
		{name: "wrong quota period", want: "cgroup holds quota", edit: func(t *testing.T, _ *Controller, h *platform.Scripted, _ *platform.FaultyHost) {
			h.VCPU("b", 0).PeriodUs = 50_000
		}},
		{name: "checkpoint refused", want: "checkpoint rejected", edit: func(t *testing.T, c *Controller, _ *platform.Scripted, _ *platform.FaultyHost) {
			vcpu(c, "a").PrevUsageUs = -1
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.ControlEnabled = !tc.ctl
			c, h, fh := checkNode(t, cfg)
			warmUp(t, c, h, 3, 300_000)
			if tc.edit != nil {
				tc.edit(t, c, h, fh)
			}
			err := c.Check()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("Check = %v, want a rejection naming %q", err, tc.want)
			}
		})
	}
}

// checkNode is a 1-core node (capacity one period) with VMs a and b, one
// vCPU each at 1200 MHz (C_i = 500 000 µs), behind a fault wrapper over a
// host that reads quotas back.
func checkNode(t *testing.T, cfg Config) (*Controller, *platform.Scripted, *platform.FaultyHost) {
	h := platform.NewScripted(platform.NodeInfo{Name: "one", Cores: 1, MaxFreqMHz: 2400})
	h.AddVM("a", 1, 1200)
	h.AddVM("b", 1, 1200)
	fh := platform.WithFaults(readableQuotas{h}, 1)
	return mustController(t, fh, cfg), h, fh
}

// writeQuotas puts every tracked vCPU's quota in its cgroup, as apply
// would after a hand edit of the caps.
func writeQuotas(c *Controller, h *platform.Scripted) {
	for _, st := range c.VMs() {
		for _, v := range st.VCPUs {
			h.VCPU(v.VM, v.Index).QuotaUs = c.quotaFor(v)
			h.VCPU(v.VM, v.Index).PeriodUs = c.cfg.CgroupPeriodUs
		}
	}
}

func mustStep(t *testing.T, c *Controller) {
	t.Helper()
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
}
