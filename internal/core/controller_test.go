package core

import (
	"reflect"
	"testing"

	"vfreq/internal/platform"
)

// newFakeHost is the 4-core, 2400 MHz node most stage tests script.
func newFakeHost() *platform.Scripted {
	return platform.NewScripted(platform.NodeInfo{Name: "fake", Cores: 4, MaxFreqMHz: 2400})
}

// vmsOf is the host's listing, for loops that make every vCPU consume.
func vmsOf(h *platform.Scripted) []platform.VMInfo {
	vms, _ := h.ListVMs() // a Scripted listing cannot fail
	return vms
}

// quotaOf is the (quota, period) in force on a live vCPU, comparable with ==.
func quotaOf(h *platform.Scripted, vm string, j int) [2]int64 {
	v := h.VCPU(vm, j)
	return [2]int64{v.QuotaUs, v.PeriodUs}
}

func mustController(t *testing.T, h platform.Host, cfg Config) *Controller {
	t.Helper()
	c, err := New(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	h := newFakeHost()
	bad := DefaultConfig()
	bad.PeriodUs = 0
	if _, err := New(h, bad); err == nil {
		t.Fatal("invalid config accepted")
	}
	h = platform.NewScripted(platform.NodeInfo{Name: "fake", MaxFreqMHz: 2400})
	if _, err := New(h, DefaultConfig()); err == nil {
		t.Fatal("invalid node accepted")
	}
}

func TestConfigValidateCases(t *testing.T) {
	mk := func(mut func(*Config)) Config {
		c := DefaultConfig()
		mut(&c)
		return c
	}
	cases := []Config{
		mk(func(c *Config) { c.HistoryLen = 1 }),
		mk(func(c *Config) { c.IncreaseTrigger = 0 }),
		mk(func(c *Config) { c.IncreaseTrigger = 1.5 }),
		mk(func(c *Config) { c.IncreaseFactor = 0 }),
		mk(func(c *Config) { c.DecreaseTrigger = 1 }),
		mk(func(c *Config) { c.DecreaseFactor = 0 }),
		mk(func(c *Config) { c.DecreaseFactor = 1 }),
		mk(func(c *Config) { c.StableMargin = -1 }),
		mk(func(c *Config) { c.WindowUs = 0 }),
		mk(func(c *Config) { c.MinQuotaUs = 0 }),
		mk(func(c *Config) { c.MinQuotaUs = c.PeriodUs + 1 }),
		mk(func(c *Config) { c.CgroupPeriodUs = 0 }),
		mk(func(c *Config) { c.CgroupPeriodUs = c.PeriodUs * 2 }),
		mk(func(c *Config) { c.CreditCapPeriods = -1 }),
	}
	for i, cfg := range cases {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestGuaranteeEq2(t *testing.T) {
	h := newFakeHost()
	c := mustController(t, h, DefaultConfig())
	// Eq. 2: C_i = p·F_v/F_MAX.
	if got := c.guarantee(1800); got != 750_000 {
		t.Fatalf("guarantee(1800) = %d, want 750000", got)
	}
	if got := c.guarantee(500); got != 208_333 {
		t.Fatalf("guarantee(500) = %d, want 208333", got)
	}
}

func TestSyncVMsAddRemove(t *testing.T) {
	h := newFakeHost()
	c := mustController(t, h, DefaultConfig())
	h.AddVM("a", 2, 500)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if c.VM("a") == nil || len(c.VM("a").VCPUs) != 2 {
		t.Fatal("VM a not tracked")
	}
	if got := c.VM("a").GuaranteeUs; got != 208_333 {
		t.Fatalf("guarantee = %d", got)
	}
	h.AddVM("b", 1, 1200)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if len(c.VMs()) != 2 {
		t.Fatal("VM b not added")
	}
	h.RemoveVM("a")
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if c.VM("a") != nil || len(c.VMs()) != 1 {
		t.Fatal("VM a not removed")
	}

	// A Step drops every VM its listing did not name: the departure stamp
	// is the Step's number, so a VM AdoptVM took before the first Step
	// (stamped with nothing) goes on that Step if it has left meanwhile,
	// and a VM that left while ListVMs failed goes on the next clean Step.
	// Kill list, each verified red: stamping with c.steps instead of the
	// Step's number (the adopted row), and not stamping arrivals (the rows
	// above).
	t.Run("adopted, gone before the first Step", func(t *testing.T) {
		h := newFakeHost()
		h.AddVM("m", 1, 1200)
		h.AddVM("keep", 1, 1200)
		c := mustController(t, h, DefaultConfig())
		if err := c.AdoptVM(VMSnapshot{Name: "m",
			VCPUs: []VCPUSnapshot{{Index: 0, CapUs: 300_000, EstimateUs: 300_000}}}); err != nil {
			t.Fatal(err)
		}
		h.RemoveVM("m")
		mustStep(t, c)
		if got := c.LastReport().Removed; !reflect.DeepEqual(got, []string{"m"}) {
			t.Fatalf("Removed = %v, want [m]", got)
		}
		if want := []platform.VCPURef{{VM: "m"}}; !reflect.DeepEqual(h.Cleared, want) {
			t.Fatalf("quotas released as %v, want %v", h.Cleared, want)
		}
		if got := c.VMs(); len(got) != 1 || got[0].Info.Name != "keep" {
			t.Fatalf("tracked %v, want only keep", got)
		}
	})
	t.Run("gone during a listing outage", func(t *testing.T) {
		h := newFakeHost()
		for _, n := range []string{"x", "y", "z"} {
			h.AddVM(n, 1, 1200)
		}
		fh := platform.WithFaults(h, 1)
		c := mustController(t, fh, DefaultConfig())
		warmUp(t, c, h, 2, 100_000)
		fh.MustPlan(platform.SiteListVMs, always)
		h.RemoveVM("y")
		if err := c.Step(); err == nil {
			t.Fatal("Step succeeded with ListVMs failing")
		}
		fh.Clear(platform.SiteListVMs)
		warmUp(t, c, h, 1, 100_000)
		if got := c.LastReport().Removed; !reflect.DeepEqual(got, []string{"y"}) {
			t.Fatalf("Removed = %v, want [y]", got)
		}
		if got := c.VMs(); len(got) != 2 || got[0].Info.Name != "x" || got[1].Info.Name != "z" {
			t.Fatalf("tracked %v, want x and z", got)
		}
	})
}

func TestSyncRejectsInfeasibleFrequency(t *testing.T) {
	h := newFakeHost()
	c := mustController(t, h, DefaultConfig())
	h.AddVM("fast", 1, 5000) // above 2400 F_MAX
	if err := c.Step(); err != nil {
		t.Fatalf("one bad template aborted the step: %v", err)
	}
	if c.VM("fast") != nil {
		t.Fatal("infeasible VM registered")
	}
	rep := c.LastReport()
	if rep.FaultCount() != 1 || rep.Faults[0].Stage != "sync" || rep.Faults[0].Op != "template" {
		t.Fatalf("faults = %+v, want one sync/template fault", rep.Faults)
	}
}

func TestMonitorComputesDeltaAndFreq(t *testing.T) {
	h := newFakeHost()
	c := mustController(t, h, DefaultConfig())
	h.AddVM("a", 1, 1200)
	if err := c.Step(); err != nil { // registers with zero usage
		t.Fatal(err)
	}
	h.Consume("a", 0, 600_000)
	h.VCPU("a", 0).LastCPU = 2
	h.CoreMHz[2] = 2000
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	v := c.VM("a").VCPUs[0]
	if v.LastU != 600_000 {
		t.Fatalf("LastU = %d, want 600000", v.LastU)
	}
	// Virtual frequency: 0.6 share × 2000 MHz = 1200 MHz.
	if v.FreqMHz != 1200 {
		t.Fatalf("FreqMHz = %v, want 1200", v.FreqMHz)
	}
	if v.LastCore != 2 {
		t.Fatalf("LastCore = %d", v.LastCore)
	}
}

func TestMonitorHandlesCounterReset(t *testing.T) {
	h := newFakeHost()
	c := mustController(t, h, DefaultConfig())
	h.AddVM("a", 1, 1200)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	h.Consume("a", 0, 500_000)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	h.RemoveVM("a") // the VM restarts: its counter starts again below the last reading
	h.AddVM("a", 1, 1200)
	h.Consume("a", 0, 100)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if u := c.VM("a").VCPUs[0].LastU; u != 0 {
		t.Fatalf("LastU after reset = %d, want 0", u)
	}
}

func TestEstimateIncreaseCase(t *testing.T) {
	c := mustController(t, newFakeHost(), DefaultConfig())
	v := &VCPUState{Hist: NewHistory(5), CapUs: 100_000}
	for _, u := range []int64{50_000, 70_000, 90_000, 96_000} {
		v.Hist.Push(u)
	}
	v.LastU = 96_000 // ≥ 0.95 × 100000 and rising
	got := c.estimate(v)
	if got != 200_000 { // cap × (1 + 1.00)
		t.Fatalf("increase estimate = %d, want 200000", got)
	}
}

func TestMarketEq6(t *testing.T) {
	h := newFakeHost() // 4 cores → capacity 4e6
	c := mustController(t, h, DefaultConfig())
	h.AddVM("a", 2, 1200)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	st := c.VM("a")
	st.VCPUs[0].CapUs = 500_000
	st.VCPUs[1].CapUs = 300_000
	if got := c.market(); got != 3_200_000 {
		t.Fatalf("market = %d, want 3200000", got)
	}
	// Oversubscribed, the market is negative, and the auction sells
	// nothing of it to a buyer with a full wallet.
	st.VCPUs[0].CapUs = 3_000_000
	st.VCPUs[1].CapUs = 2_000_000
	if got := c.market(); got != -1_000_000 {
		t.Fatalf("oversubscribed market = %d, want -1000000", got)
	}
	st.VCPUs[0].EstUs, st.CreditUs = 3_500_000, 1_000_000
	if left := c.auction(c.market()); left != 0 || st.VCPUs[0].CapUs != 3_000_000 || st.CreditUs != 1_000_000 {
		t.Fatalf("auction of an oversubscribed market left %d, cap %d, wallet %d; want 0, 3000000, 1000000",
			left, st.VCPUs[0].CapUs, st.CreditUs)
	}
}

func TestDistributeProportional(t *testing.T) {
	h := newFakeHost()
	c := mustController(t, h, DefaultConfig())
	h.AddVM("a", 1, 1200)
	h.AddVM("b", 1, 1200)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	a, b := c.VM("a").VCPUs[0], c.VM("b").VCPUs[0]
	a.CapUs, a.EstUs = 0, 300_000 // demand 300000
	b.CapUs, b.EstUs = 0, 100_000 // demand 100000
	c.distribute(200_000)
	if a.CapUs != 150_000 || b.CapUs != 50_000 {
		t.Fatalf("distribution = %d/%d, want 150000/50000", a.CapUs, b.CapUs)
	}
	// Distribution never exceeds the estimate.
	a.CapUs, a.EstUs = 0, 50_000
	b.CapUs, b.EstUs = 0, 50_000
	c.distribute(1_000_000)
	if a.CapUs != 50_000 || b.CapUs != 50_000 {
		t.Fatalf("over-distribution: %d/%d", a.CapUs, b.CapUs)
	}
}

func TestMonitoringOnlyModeNeverWritesQuotas(t *testing.T) {
	h := newFakeHost()
	cfg := DefaultConfig()
	cfg.ControlEnabled = false
	c := mustController(t, h, cfg)
	h.AddVM("a", 2, 500)
	for i := 0; i < 5; i++ {
		h.Consume("a", 0, 900_000)
		h.Consume("a", 1, 900_000)
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if h.SetMaxCalls != 0 {
		t.Fatalf("execution A wrote %d quotas, want 0", h.SetMaxCalls)
	}
	// Monitoring still happens.
	if c.VM("a").VCPUs[0].LastU != 900_000 {
		t.Fatal("monitoring inactive in execution A")
	}
}

func TestStepTimingsPopulated(t *testing.T) {
	h := newFakeHost()
	c := mustController(t, h, DefaultConfig())
	h.AddVM("a", 1, 500)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	tm := c.LastTimings()
	if tm.Total <= 0 {
		t.Fatal("total timing not recorded")
	}
	if c.Steps() != 1 {
		t.Fatalf("Steps = %d", c.Steps())
	}
}

func TestCapacityAndGuaranteeTotals(t *testing.T) {
	h := newFakeHost()
	c := mustController(t, h, DefaultConfig())
	h.AddVM("a", 2, 1200)
	h.AddVM("b", 4, 600)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if got := c.CapacityUs(); got != 4_000_000 {
		t.Fatalf("capacity = %d", got)
	}
	// 2×500000 + 4×250000 = 2000000.
	var total int64
	for _, st := range c.VMs() {
		total += st.GuaranteeUs * int64(len(st.VCPUs))
	}
	if total != 2_000_000 {
		t.Fatalf("total guarantee = %d", total)
	}
}

// TestDepartureOrderDeterministic: VMs departing together are reported,
// and their quotas released, in registration order — not in the order a
// map walk happens to visit them.
func TestDepartureOrderDeterministic(t *testing.T) {
	h := newFakeHost()
	names := []string{"m", "c", "x", "a", "q", "f", "keep"}
	for _, n := range names {
		h.AddVM(n, 1, 300)
	}
	c := mustController(t, h, DefaultConfig())
	warmUp(t, c, h, 2, 100_000)

	var wantCleared []platform.VCPURef
	for _, n := range names[:6] { // all but "keep" depart in one step
		h.RemoveVM(n)
		wantCleared = append(wantCleared, platform.VCPURef{VM: n})
	}
	warmUp(t, c, h, 1, 100_000)
	if got := c.LastReport().Removed; !reflect.DeepEqual(got, names[:6]) {
		t.Fatalf("Removed = %v, want registration order %v", got, names[:6])
	}
	if !reflect.DeepEqual(h.Cleared, wantCleared) {
		t.Fatalf("quotas released as %v, want %v", h.Cleared, wantCleared)
	}
	if got := c.VMs(); len(got) != 1 || got[0].Info.Name != "keep" {
		t.Fatalf("survivors = %v, want only keep", got)
	}
}

// TestBreakerTripOrderDeterministic: breakers tripping in the same step
// record their faults in registration order.
func TestBreakerTripOrderDeterministic(t *testing.T) {
	inner := newFakeHost()
	names := []string{"m", "c", "x", "a"}
	for _, n := range names {
		inner.AddVM(n, 1, 300)
	}
	fh := platform.WithFaults(inner, 3)
	cfg := DefaultConfig()
	cfg.HostRetries = 0
	cfg.BreakerThreshold = 2
	cfg.BreakerOpenSteps = 2
	c := mustController(t, fh, cfg)
	warmUp(t, c, inner, 2, 100_000)

	fh.MustPlan(platform.SiteUsage, platform.FaultPlan{Persistent: true})
	warmUp(t, c, inner, 2, 100_000)
	var tripped []string
	for _, f := range c.LastReport().Faults {
		if f.Stage == "breaker" {
			tripped = append(tripped, f.VM)
		}
	}
	if !reflect.DeepEqual(tripped, names) {
		t.Fatalf("breaker faults for %v, want registration order %v", tripped, names)
	}
}
