package core

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"vfreq/internal/platform"
)

// readableQuotas adds the QuotaReader capability to a Scripted host,
// serving back its write record, so Check's cgroup clause runs. A
// wrapper, not a Scripted method: the capability switches quota adoption
// on, which most restore tests want off.
type readableQuotas struct {
	*platform.Scripted
}

func (q readableQuotas) ReadMax(vm string, j int) (int64, int64, error) {
	v := q.VCPU(vm, j)
	if v == nil {
		return 0, 0, fmt.Errorf("no vCPU %s/%d", vm, j)
	}
	return v.QuotaUs, v.PeriodUs, nil
}

// workSteps drives n steps with per-VM consumption patterns that exercise
// credits, triggers and the auction.
func workSteps(t *testing.T, h *platform.Scripted, c *Controller, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		for _, info := range vmsOf(h) {
			for j := 0; j < info.VCPUs; j++ {
				// Deterministic but varied: ramps for one VM, idles the other.
				h.Consume(info.Name, j, int64(50_000*(i+1)+100_000*j)%900_000)
			}
		}
		if err := c.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

func TestCheckpointRoundTripExact(t *testing.T) {
	h := newFakeHost()
	h.AddVM("web", 2, 500)
	h.AddVM("batch", 4, 1200)
	c := mustController(t, h, DefaultConfig())
	workSteps(t, h, c, 7)

	snap := c.Snapshot()
	if snap.Version != SnapshotVersion || snap.Step != 7 {
		t.Fatalf("snapshot header = v%d step %d", snap.Version, snap.Step)
	}
	raw, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, got) {
		t.Fatalf("checkpoint not round-trippable:\nwrote %+v\nread  %+v", snap, got)
	}
}

// TestRestoreIgnoresRetiredCounterKeys: a version-3 checkpoint carries
// keys the version-4 format retired — "clean_steps" per vCPU and
// "breaker_probe_clean" per VM (from while the recovery streak was
// configurable), and the eight node totals and two per-VM template
// figures nothing restored from. It still decodes and restores, and the
// restored controller steps exactly like one restored from the same
// checkpoint written as version 4 without those keys.
func TestRestoreIgnoresRetiredCounterKeys(t *testing.T) {
	inner := newFakeHost()
	inner.AddVM("a", 2, 1200)
	inner.AddVM("b", 1, 600)
	fh := platform.WithFaults(inner, 11)
	c := mustController(t, fh, breakerConfig())
	warmUp(t, c, inner, 3, 300_000)
	// Trip a's breaker and run its quarantine out: a is half-open, its
	// vCPUs degraded with a fault history.
	fh.MustPlan(platform.SiteUsage, platform.FaultPlan{
		Persistent: true,
		Match:      func(vm string, vcpu int) bool { return vm == "a" },
	})
	warmUp(t, c, inner, 5, 300_000)
	fh.Clear(platform.SiteUsage)
	if st := c.VM("a").Breaker; st.State != BreakerHalfOpen {
		t.Fatalf("breaker = %+v, want half-open", st)
	}

	raw, err := c.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	doc["version"] = 3
	for _, key := range []string{"capacity_us", "total_guarantee_us", "total_cap_us", "market_us",
		"step_micros", "monitor_micros", "degraded_vcpus", "faults"} {
		doc[key] = 123
	}
	for _, vm := range doc["vms"].([]any) {
		vm := vm.(map[string]any)
		vm["breaker_probe_clean"] = 1
		vm["freq_mhz"] = 1200
		vm["guarantee_us"] = 500_000
		for _, v := range vm["vcpus"].([]any) {
			v.(map[string]any)["clean_steps"] = 1
		}
	}
	legacy, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}

	restore := func(data []byte) *Controller {
		t.Helper()
		snap, err := DecodeSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		r := mustController(t, inner, breakerConfig())
		rr, err := r.Restore(snap)
		if err != nil {
			t.Fatal(err)
		}
		if len(rr.Adopted) != 2 {
			t.Fatalf("restore report: %s", rr.String())
		}
		return r
	}
	withKeys, without := restore(legacy), restore(raw)
	for i := 0; i < 4; i++ {
		// Both controllers read the one host, so each consumption is
		// seen by both Steps.
		inner.Consume("a", 0, 200_000)
		inner.Consume("b", 0, 400_000)
		for _, r := range []*Controller{withKeys, without} {
			if err := r.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if s1, s2 := withKeys.Snapshot(), without.Snapshot(); !reflect.DeepEqual(s1, s2) {
			t.Fatalf("step %d: the retired keys changed the restored controller:\nwith    %+v\nwithout %+v", i, s1, s2)
		}
		if r1, r2 := withKeys.LastReport(), without.LastReport(); r1.Recovered != r2.Recovered || r1.HalfOpenVMs != r2.HalfOpenVMs {
			t.Fatalf("step %d: reports differ:\nwith    %s\nwithout %s", i, r1.String(), r2.String())
		}
	}
	if st := withKeys.VM("a").Breaker; st.State != BreakerClosed {
		t.Fatalf("breaker after the probe = %+v, want closed", st)
	}
}

func TestRestoreRebuildsIdenticalController(t *testing.T) {
	h := newFakeHost()
	h.AddVM("web", 2, 500)
	h.AddVM("batch", 4, 1200)
	cfg := DefaultConfig()
	c1 := mustController(t, h, cfg)
	workSteps(t, h, c1, 7)

	snap := c1.Snapshot()
	c2 := mustController(t, h, cfg)
	rr, err := c2.Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Adopted) != 2 || len(rr.ColdStarted) != 0 || len(rr.Dropped) != 0 || len(rr.Deferred) != 0 {
		t.Fatalf("restore report: %s", rr.String())
	}
	if rr.CheckpointStep != 7 || c2.Steps() != 7 {
		t.Fatalf("restored step counter = %d (report %d), want 7", c2.Steps(), rr.CheckpointStep)
	}
	if s1, s2 := c1.Snapshot(), c2.Snapshot(); !reflect.DeepEqual(s1, s2) {
		t.Fatalf("restored state differs:\nlive     %+v\nrestored %+v", s1, s2)
	}

	// Both controllers now observe the same host: they must make identical
	// decisions step for step (the acceptance criterion's convergence, at
	// the white-box level — see restore_sim_test.go for the sim version).
	for i := 0; i < 5; i++ {
		h.Consume("web", 0, 300_000)
		h.Consume("batch", 2, 700_000)
		if err := c1.Step(); err != nil {
			t.Fatal(err)
		}
		if err := c2.Step(); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"web", "batch"} {
			v1, v2 := c1.VM(name), c2.VM(name)
			if v1.CreditUs != v2.CreditUs {
				t.Fatalf("step %d: %s credit diverged: %d vs %d", i, name, v1.CreditUs, v2.CreditUs)
			}
			for j := range v1.VCPUs {
				if v1.VCPUs[j].CapUs != v2.VCPUs[j].CapUs {
					t.Fatalf("step %d: %s/vcpu%d cap diverged: %d vs %d",
						i, name, j, v1.VCPUs[j].CapUs, v2.VCPUs[j].CapUs)
				}
			}
		}
	}
}

func TestRestoreRevalidatesAgainstLiveHost(t *testing.T) {
	h := newFakeHost()
	h.AddVM("a", 1, 500)
	cfg := DefaultConfig()
	c := mustController(t, h, cfg)
	workSteps(t, h, c, 2)
	snap := c.Snapshot()

	t.Run("used controller", func(t *testing.T) {
		if _, err := c.Restore(snap); err == nil {
			t.Fatal("restore into a stepped controller accepted")
		}
	})
	t.Run("version mismatch", func(t *testing.T) {
		bad := snap
		bad.Version = 1
		if _, err := mustController(t, h, cfg).Restore(bad); err == nil {
			t.Fatal("old version accepted")
		}
	})
	t.Run("node shape mismatch", func(t *testing.T) {
		bad := snap
		bad.Cores = 128
		if _, err := mustController(t, h, cfg).Restore(bad); err == nil {
			t.Fatal("foreign node shape accepted")
		}
	})
	t.Run("node name mismatch", func(t *testing.T) {
		bad := snap
		bad.Node = "other-node"
		if _, err := mustController(t, h, cfg).Restore(bad); err == nil {
			t.Fatal("foreign node name accepted")
		}
	})
	t.Run("period mismatch", func(t *testing.T) {
		other := cfg
		other.PeriodUs = 500_000
		other.WindowUs = 5_000
		if _, err := mustController(t, h, other).Restore(snap); err == nil {
			t.Fatal("period change accepted")
		}
	})
}

func TestRestoreDropsAndColdStarts(t *testing.T) {
	// Incarnation 1 ran with VMs a and gone.
	h1 := newFakeHost()
	h1.AddVM("a", 2, 500)
	h1.AddVM("gone", 1, 1200)
	cfg := DefaultConfig()
	c1 := mustController(t, h1, cfg)
	workSteps(t, h1, c1, 4)
	snap := c1.Snapshot()

	// While the controller was down, gone departed and fresh arrived.
	h2 := newFakeHost()
	h2.AddVM("a", 2, 500)
	h2.AddVM("fresh", 1, 1800)
	c2 := mustController(t, h2, cfg)
	rr, err := c2.Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Adopted) != 1 || rr.Adopted[0] != "a" {
		t.Fatalf("Adopted = %v", rr.Adopted)
	}
	if len(rr.Dropped) != 1 || rr.Dropped[0] != "gone" {
		t.Fatalf("Dropped = %v", rr.Dropped)
	}
	if len(rr.ColdStarted) != 1 || rr.ColdStarted[0] != "fresh" {
		t.Fatalf("ColdStarted = %v", rr.ColdStarted)
	}
	// a kept its wallet and history; fresh starts empty.
	if got := c2.VM("a").CreditUs; got != c1.VM("a").CreditUs {
		t.Fatalf("adopted credit = %d, want %d", got, c1.VM("a").CreditUs)
	}
	if got := c2.VM("a").VCPUs[0].Hist.Len(); got != c1.VM("a").VCPUs[0].Hist.Len() {
		t.Fatalf("adopted history length = %d", got)
	}
	if c2.VM("fresh").CreditUs != 0 || c2.VM("fresh").VCPUs[0].Hist.Len() != 0 {
		t.Fatal("cold-started VM inherited state")
	}
	if c2.VM("gone") != nil {
		t.Fatal("departed VM restored")
	}
	// The restored controller keeps stepping over the new population.
	if err := c2.Step(); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreAdoptsForeignQuotas(t *testing.T) {
	cfg := DefaultConfig()

	t.Run("cold start adopts leftover quota", func(t *testing.T) {
		h := readableQuotas{newFakeHost()}
		h.AddVM("a", 1, 1200)
		// A previous incarnation (or operator) left a 30 ms / 100 ms quota.
		if err := h.SetMax("a", 0, 30_000, 100_000); err != nil {
			t.Fatal(err)
		}
		c := mustController(t, h, cfg)
		rr, err := c.Restore(Snapshot{
			Version: SnapshotVersion, Cores: 4, MaxFreqMHz: 2400, PeriodUs: cfg.PeriodUs,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rr.AdoptedQuotas != 1 {
			t.Fatalf("AdoptedQuotas = %d, want 1", rr.AdoptedQuotas)
		}
		// 30 ms per 100 ms cgroup period → 300 ms per 1 s control period.
		if got := c.VM("a").VCPUs[0].CapUs; got != 300_000 {
			t.Fatalf("adopted cap = %d, want 300000", got)
		}
	})

	t.Run("matching quota is not adopted", func(t *testing.T) {
		h := readableQuotas{newFakeHost()}
		h.AddVM("a", 1, 1200)
		c1 := mustController(t, h, cfg)
		workSteps(t, h.Scripted, c1, 3)
		snap := c1.Snapshot()
		c2 := mustController(t, h, cfg)
		rr, err := c2.Restore(snap)
		if err != nil {
			t.Fatal(err)
		}
		if rr.AdoptedQuotas != 0 {
			t.Fatalf("AdoptedQuotas = %d, want 0 (live quota matches checkpoint)", rr.AdoptedQuotas)
		}
		if got, want := c2.VM("a").VCPUs[0].CapUs, c1.VM("a").VCPUs[0].CapUs; got != want {
			t.Fatalf("cap = %d, want checkpoint value %d", got, want)
		}
	})

	t.Run("diverged quota wins over checkpoint", func(t *testing.T) {
		h := readableQuotas{newFakeHost()}
		h.AddVM("a", 1, 1200)
		c1 := mustController(t, h, cfg)
		workSteps(t, h.Scripted, c1, 3)
		snap := c1.Snapshot()
		// Someone rewrote the quota while the controller was down.
		if err := h.SetMax("a", 0, 77_000, 100_000); err != nil {
			t.Fatal(err)
		}
		c2 := mustController(t, h, cfg)
		rr, err := c2.Restore(snap)
		if err != nil {
			t.Fatal(err)
		}
		if rr.AdoptedQuotas != 1 {
			t.Fatalf("AdoptedQuotas = %d, want 1", rr.AdoptedQuotas)
		}
		if got := c2.VM("a").VCPUs[0].CapUs; got != 770_000 {
			t.Fatalf("cap = %d, want 770000 (live quota scaled to control period)", got)
		}
	})
}

// panicHost crashes the usage read of one VM to exercise the step
// watchdog. It stays a type of its own because a panic is not something
// the shared doubles can script: Scripted answers or errors, and a
// FaultyHost plan injects errors and delays, never a crash.
type panicHost struct {
	*platform.Scripted
	panicVM string
}

func (p *panicHost) UsageUs(vm string, j int) (int64, error) {
	if vm == p.panicVM {
		panic("corrupted cpu.stat")
	}
	return p.Scripted.UsageUs(vm, j)
}

// TestStepRecoversFromPanic panics on the second VM's read, after the
// first VM's vCPUs are already committed: the watchdog must degrade and
// write through those too.
func TestStepRecoversFromPanic(t *testing.T) {
	h := &panicHost{Scripted: newFakeHost()}
	h.AddVM("a", 2, 500)
	h.AddVM("b", 2, 500)
	cfg := DefaultConfig()
	c := mustController(t, h, cfg)
	const u = 600_000
	warmUp(t, c, h.Scripted, 8, u)
	steps := c.Steps()

	h.panicVM = "b"
	warmUp(t, c, h.Scripted, 1, u) // fails the test unless the panic is recovered
	rep := c.LastReport()
	if !rep.Panicked {
		t.Fatal("Panicked not set")
	}
	if rep.DegradedVCPUs != 4 || rep.VCPUs != 4 {
		t.Fatalf("report after panic: %s", rep.String())
	}
	if rep.FaultCount() == 0 || rep.Faults[0].Op != "panic" {
		t.Fatalf("panic fault not recorded: %s", rep.String())
	}
	if !strings.Contains(rep.String(), "panicked") {
		t.Fatalf("report string hides the panic: %s", rep.String())
	}
	if c.Steps() != steps+1 {
		t.Fatalf("Steps = %d, want %d (panicked step still completes)", c.Steps(), steps+1)
	}
	for _, st := range c.VMs() {
		for _, v := range st.VCPUs {
			if v.appliedQuotaOK {
				t.Fatalf("%s/%d keeps its applied-quota cache across a panicked step", v.VM, v.Index)
			}
		}
	}

	// The next clean step recovers every vCPU and writes every quota
	// through; b's delta spans the panicked period and is clamped.
	h.panicVM = ""
	writes := h.SetMaxCalls
	warmUp(t, c, h.Scripted, 1, u)
	rep = c.LastReport()
	if rep.Panicked || rep.DegradedVCPUs != 0 || rep.Recovered != 4 {
		t.Fatalf("recovery step report: %s (Recovered=%d)", rep.String(), rep.Recovered)
	}
	if got := h.SetMaxCalls - writes; got != 4 {
		t.Fatalf("recovery step wrote %d quotas, want all 4", got)
	}
	for _, st := range c.VMs() {
		for _, v := range st.VCPUs {
			if v.LastU > cfg.PeriodUs {
				t.Fatalf("%s/%d LastU = %d above the period", v.VM, v.Index, v.LastU)
			}
		}
	}
	if got := c.VM("b").VCPUs[0].LastU; got != cfg.PeriodUs {
		t.Fatalf("b/0 LastU = %d, want the two-period delta clamped to %d", got, cfg.PeriodUs)
	}
}

func TestStepDeadlineOverrun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PeriodUs = 20_000 // 20 ms period, 10 ms deadline
	cfg.CgroupPeriodUs = 10_000
	cfg.MinQuotaUs = 500
	cfg.WindowUs = 1_000

	// Every usage read stalls 25–50 ms, past the 10 ms deadline.
	inner := newFakeHost()
	inner.AddVM("a", 1, 500)
	h := platform.WithFaults(inner, 1)
	h.MustPlan(platform.SiteUsage, platform.FaultPlan{DelayRate: 1, DelayUs: 50_000})
	c := mustController(t, h, cfg)

	// Step 1 registers the VM: the initial usage read blows the deadline
	// during sync.
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	rep := c.LastReport()
	if !rep.Overrun || rep.OverrunStage != "sync" {
		t.Fatalf("step 1 report: overrun=%v stage=%q, want sync overrun", rep.Overrun, rep.OverrunStage)
	}
	if rep.SkippedPeriods < 1 {
		t.Fatalf("SkippedPeriods = %d, want >= 1 (25 ms work, 20 ms period)", rep.SkippedPeriods)
	}
	if !strings.Contains(rep.String(), "overrun") {
		t.Fatalf("report string hides the overrun: %s", rep.String())
	}

	// Step 2 overruns in monitor, the stage the paper measures as dominant.
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if rep = c.LastReport(); !rep.Overrun || rep.OverrunStage != "monitor" {
		t.Fatalf("step 2 report: overrun=%v stage=%q, want monitor overrun", rep.Overrun, rep.OverrunStage)
	}

	// The deadline is half the period, not the whole of it: a Step that
	// stalls 300 ms of its 400 ms period (two 150 ms usage reads, the
	// registration's and the monitor's) overruns without skipping one.
	cfg.PeriodUs = 400_000
	sh := stallHost{newFakeHost(), 150 * time.Millisecond}
	sh.AddVM("a", 1, 500)
	c = mustController(t, sh, cfg)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if rep = c.LastReport(); !rep.Overrun || rep.SkippedPeriods != 0 {
		t.Fatalf("300 ms Step of a 400 ms period: %s, want an overrun and no skipped period", rep.String())
	}
}

// stallHost stalls every usage read for a fixed time.
type stallHost struct {
	*platform.Scripted
	stall time.Duration
}

func (s stallHost) UsageUs(vm string, j int) (int64, error) {
	time.Sleep(s.stall)
	return s.Scripted.UsageUs(vm, j)
}

// TestPeriodSleepClampsOverrun is the regression for the end-of-step
// sleep audit: a periodic caller sleeps PeriodSleep(spent) after each
// Step, and an overrunning step (spent ≥ p) must clamp the sleep to
// zero — a negative p − spent would return from time.Sleep immediately
// but double-count the overrun against the next period's usage delta in
// callers that derive the delta from the intended schedule.
func TestPeriodSleepClampsOverrun(t *testing.T) {
	c := mustController(t, newFakeHost(), DefaultConfig())
	period := time.Duration(c.Config().PeriodUs) * time.Microsecond
	if d := c.PeriodSleep(period / 4); d != period-period/4 {
		t.Fatalf("PeriodSleep(p/4) = %v, want %v", d, period-period/4)
	}
	if d := c.PeriodSleep(period); d != 0 {
		t.Fatalf("PeriodSleep(p) = %v, want 0", d)
	}
	if d := c.PeriodSleep(3 * period); d != 0 {
		t.Fatalf("PeriodSleep(3p) = %v, want 0", d)
	}
	if d := c.PeriodSleep(0); d != period {
		t.Fatalf("PeriodSleep(0) = %v, want %v", d, period)
	}
}
