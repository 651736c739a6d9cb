package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"vfreq/internal/platform"
)

// stubStore is an in-memory checkpoint store with a switchable failure.
type stubStore struct {
	data  []byte
	saves int
	fail  error
}

func (s *stubStore) Save(b []byte) error {
	if s.fail != nil {
		return s.fail
	}
	s.saves++
	s.data = append([]byte(nil), b...)
	return nil
}

func (s *stubStore) Load() ([]byte, error) {
	if s.data == nil {
		return nil, platform.ErrNoCheckpoint
	}
	return s.data, nil
}

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

// scrubVolatile zeroes the snapshot fields that describe the last Step's
// execution rather than the controller state (timings, fault counts) so
// two state-identical controllers compare equal.
func scrubVolatile(s *Snapshot) {
	s.StepMicros, s.MonitorMicros = 0, 0
	s.DegradedVCPUs, s.Faults = 0, 0
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

// Satellite: MarketUs in the snapshot is Eq. 6 — the unallocated
// capacity after base guarantees, never negative even oversubscribed.
func TestSnapshotMarketUsesEq6(t *testing.T) {
	h := newFakeHost()
	h.AddVM("a", 2, 1800)
	c := mustController(t, h, DefaultConfig())
	workSteps(t, h, c, 3)
	s := c.Snapshot()
	if s.MarketUs != c.market() {
		t.Fatalf("MarketUs = %d, market() = %d", s.MarketUs, c.market())
	}
	want := c.CapacityUs()
	for _, st := range c.VMs() {
		for _, v := range st.VCPUs {
			want -= v.CapUs
		}
	}
	if want < 0 {
		want = 0
	}
	if s.MarketUs != want {
		t.Fatalf("MarketUs = %d, want Eq.6 value %d", s.MarketUs, want)
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
	s1, s2 := c1.Snapshot(), c2.Snapshot()
	scrubVolatile(&s1)
	scrubVolatile(&s2)
	if !reflect.DeepEqual(s1, s2) {
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

func TestCheckpointEveryPersistsAndFaults(t *testing.T) {
	h := newFakeHost()
	h.AddVM("a", 1, 500)
	cfg := DefaultConfig()
	cfg.CheckpointEvery = 2
	c := mustController(t, h, cfg)
	st := &stubStore{}
	c.AttachStore(st)

	for i := 1; i <= 5; i++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
		wantCk := i%2 == 0
		if got := c.LastReport().Checkpointed; got != wantCk {
			t.Fatalf("step %d: Checkpointed = %v, want %v", i, got, wantCk)
		}
	}
	if st.saves != 2 {
		t.Fatalf("saves = %d, want 2 (steps 2 and 4)", st.saves)
	}
	// The stored bytes decode to the step-4 state.
	snap, err := DecodeSnapshot(st.data)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Step != 4 {
		t.Fatalf("stored checkpoint step = %d, want 4", snap.Step)
	}

	// A failing store degrades checkpointing, not the control loop.
	st.fail = errors.New("disk full")
	if err := c.Step(); err != nil {
		t.Fatalf("step with failing store: %v", err)
	}
	rep := c.LastReport()
	if rep.Checkpointed {
		t.Fatal("Checkpointed set despite save failure")
	}
	if rep.FaultCount() != 1 || rep.Faults[0].Stage != "checkpoint" {
		t.Fatalf("checkpoint fault not recorded: %s", rep.String())
	}

	// Explicit Checkpoint surfaces the error directly.
	if err := c.Checkpoint(); err == nil {
		t.Fatal("Checkpoint succeeded with failing store")
	}
	if err := mustController(t, h, cfg).Checkpoint(); err == nil {
		t.Fatal("Checkpoint succeeded without a store")
	}
}

func TestRestoreFromStore(t *testing.T) {
	h := newFakeHost()
	h.AddVM("a", 2, 500)
	cfg := DefaultConfig()
	c1 := mustController(t, h, cfg)
	workSteps(t, h, c1, 3)
	st := &stubStore{}
	c1.AttachStore(st)
	if err := c1.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	c2 := mustController(t, h, cfg)
	rr, err := c2.RestoreFromStore(st)
	if err != nil {
		t.Fatal(err)
	}
	if rr.CheckpointStep != 3 || len(rr.Adopted) != 1 {
		t.Fatalf("restore report: %s", rr.String())
	}
	// The store is attached: the restored controller keeps checkpointing.
	if err := c2.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// A missing checkpoint is ErrNoCheckpoint, so callers cold-start.
	if _, err := mustController(t, h, cfg).RestoreFromStore(&stubStore{}); !errors.Is(err, platform.ErrNoCheckpoint) {
		t.Fatalf("empty store error = %v, want ErrNoCheckpoint", err)
	}
	// A corrupt checkpoint is a decode error, not a panic.
	if _, err := mustController(t, h, cfg).RestoreFromStore(&stubStore{data: []byte("{broken")}); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
}

// Satellite: FailedSteps holds through clean steps and resets only after
// RecoverySteps consecutive clean ones, reported as Recovered.
func TestRecoveryStepsHoldFailureCounter(t *testing.T) {
	h, fh := newFlaky()
	h.AddVM("a", 1, 500)
	cfg := DefaultConfig()
	cfg.HostRetries = 0
	cfg.RecoverySteps = 3
	c := mustController(t, fh, cfg)

	for i := 0; i < 2; i++ { // register and warm up
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	fh.MustPlan(platform.SiteUsage, always)
	for i := 0; i < 2; i++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	v := c.VM("a").VCPUs[0]
	if !v.Degraded || v.FailedSteps != 2 {
		t.Fatalf("after 2 faulty steps: degraded=%v failed=%d", v.Degraded, v.FailedSteps)
	}
	fh.Clear(platform.SiteUsage)
	for i := 1; i <= 2; i++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
		if v.FailedSteps != 2 || v.CleanSteps != i {
			t.Fatalf("clean step %d: failed=%d clean=%d, counter reset too early", i, v.FailedSteps, v.CleanSteps)
		}
		if c.LastReport().Recovered != 0 {
			t.Fatalf("clean step %d: Recovered = %d too early", i, c.LastReport().Recovered)
		}
	}
	if err := c.Step(); err != nil { // third clean step
		t.Fatal(err)
	}
	if v.FailedSteps != 0 || v.CleanSteps != 0 {
		t.Fatalf("after 3 clean steps: failed=%d clean=%d, want reset", v.FailedSteps, v.CleanSteps)
	}
	if got := c.LastReport().Recovered; got != 1 {
		t.Fatalf("Recovered = %d, want 1", got)
	}
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
	if rep.DegradedVCPUs != 4 || rep.HealthyVCPUs != 0 {
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
