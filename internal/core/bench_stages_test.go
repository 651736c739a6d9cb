package core

import (
	"fmt"
	"testing"

	"vfreq/internal/metrics"
	"vfreq/internal/platform"
	"vfreq/internal/raceflag"
)

// benchHost is a platform.Host whose steady-state read and write paths
// perform zero heap allocations, so the AllocsPerRun assertions below
// measure the controller alone — something neither the sim platform
// (whose dynamic files render strings) nor a real cgroupfs tree can
// offer inside one process.
//
// Every read is pure arithmetic; UsageUs self-advances by a fixed burn
// per read, giving the estimator a stable consumption signal. That is why
// it is not a platform.Scripted: a scripted host consumes only when the
// caller says so, and a Consume loop inside the measured function would
// put the script's map writes into every AllocsPerRun and Benchmark* figure.
type benchHost struct {
	node  platform.NodeInfo
	infos []platform.VMInfo
	base  map[string]int // VM name → first flat vCPU index
	usage []int64
	burn  int64
	sets  int
}

func newBenchHost(vms, vcpus int) *benchHost {
	h := &benchHost{
		node: platform.NodeInfo{Name: "bench", Cores: 40, MaxFreqMHz: 2400},
		base: map[string]int{},
		burn: 550_000,
	}
	for i := 0; i < vms; i++ {
		name := fmt.Sprintf("b%02d", i)
		h.base[name] = len(h.usage)
		h.infos = append(h.infos, platform.VMInfo{Name: name, VCPUs: vcpus, FreqMHz: 1200})
		for j := 0; j < vcpus; j++ {
			h.usage = append(h.usage, 0)
		}
	}
	return h
}

func (h *benchHost) Node() platform.NodeInfo             { return h.node }
func (h *benchHost) ListVMs() ([]platform.VMInfo, error) { return h.infos, nil }

func (h *benchHost) UsageUs(vm string, j int) (int64, error) {
	i := h.base[vm] + j
	h.usage[i] += h.burn
	return h.usage[i], nil
}
func (h *benchHost) SetMax(vm string, j int, quota, period int64) error {
	h.sets++
	return nil
}
func (h *benchHost) ClearMax(vm string, j int) error          { return nil }
func (h *benchHost) SetBurst(vm string, j int, b int64) error { return nil }
func (h *benchHost) ThreadID(vm string, j int) (int, error)   { return 1000 + h.base[vm] + j, nil }
func (h *benchHost) LastCPU(tid int) (int, error)             { return tid % h.node.Cores, nil }
func (h *benchHost) CoreFreqMHz(core int) (int64, error)      { return 2000, nil }

// benchController builds a controller over a benchHost and steps it past
// warm-up so histories are full and the vCPU set is stable.
func benchController(tb testing.TB, vms, vcpus int) *Controller {
	tb.Helper()
	cfg := DefaultConfig()
	// The robustness layer runs armed in every benchmark and zero-alloc
	// gate: per-call budget timing, backoff configuration and per-VM
	// circuit breakers must all cost zero steady-state allocations (the
	// budget is generous enough that a healthy in-process host never
	// trips it).
	cfg.CallBudgetUs = 250_000
	cfg.RetryBackoffUs = 200
	cfg.BreakerThreshold = 3
	cfg.BreakerOpenSteps = 4
	c, err := New(newBenchHost(vms, vcpus), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	// The metrics registry is armed in every benchmark and zero-alloc
	// gate: recording a finished StepReport must cost nothing.
	c.ArmMetrics(metrics.NewRegistry())
	for i := 0; i < 8; i++ {
		if err := c.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

// TestStepZeroAlloc asserts the whole steady-state Step — sync, monitor,
// estimate, enforce, auction, distribute, apply and the recovery
// accounting — runs without a single heap allocation once the vCPU set
// is stable.
func TestStepZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c := benchController(t, 20, 2)
	allocs := testing.AllocsPerRun(50, func() {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Step allocates %.1f/op, want 0", allocs)
	}
}

func TestMonitorStageZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c := benchController(t, 20, 2)
	var rep StepReport
	allocs := testing.AllocsPerRun(50, func() {
		rep = StepReport{}
		c.monitor(&rep)
	})
	if allocs != 0 {
		t.Fatalf("monitor stage allocates %.1f/op, want 0", allocs)
	}
}

func TestApplyStageZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c := benchController(t, 20, 2)
	var rep StepReport
	allocs := testing.AllocsPerRun(50, func() {
		rep = StepReport{}
		c.apply(&rep)
	})
	if allocs != 0 {
		t.Fatalf("apply stage allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkMonitorStage measures stage 1 alone (the benchHost reads are
// pure memory: this is the controller's share of the stage).
func BenchmarkMonitorStage(b *testing.B) {
	c := benchController(b, 40, 2)
	b.ReportAllocs()
	b.ResetTimer()
	var rep StepReport
	for i := 0; i < b.N; i++ {
		rep = StepReport{}
		c.monitor(&rep)
	}
	_ = rep
}

// BenchmarkApplyStage measures stage 6 alone in the steady state: quota
// computation and the dirty check for every vCPU, all clean, no write.
func BenchmarkApplyStage(b *testing.B) {
	c := benchController(b, 40, 2)
	b.ReportAllocs()
	b.ResetTimer()
	var rep StepReport
	for i := 0; i < b.N; i++ {
		rep = StepReport{}
		c.apply(&rep)
	}
	_ = rep
}

// BenchmarkAuction measures stage 4 (Algorithm 1) on a 40-core host with
// 80 buyers. Wallets are sized below demand so the windowed rounds run
// until the wallets are empty.
func BenchmarkAuction(b *testing.B) {
	c := benchController(b, 40, 2)
	vms := c.VMs()
	reset := func() int64 {
		var market int64 = 40 * 1_000_000
		for _, vs := range vms {
			vs.CreditUs = 300_000
			for _, v := range vs.VCPUs {
				v.CapUs = 300_000
				v.EstUs = 500_000
				market -= v.CapUs
			}
		}
		return market
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		market := reset()
		c.auction(market)
	}
}

// BenchmarkSteadyStep measures the full six-stage Step on the zero-alloc
// host — the controller's own cost with the platform out of the picture.
func BenchmarkSteadyStep(b *testing.B) {
	c := benchController(b, 40, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStepSkipsCleanWrites pins the incremental apply at the Step level:
// the benchHost consumption is constant, so once the estimates settle a
// full Step must issue zero SetMax calls.
func TestStepSkipsCleanWrites(t *testing.T) {
	c := benchController(t, 20, 2)
	h := c.host.(*benchHost)
	sets := h.sets
	for i := 0; i < 5; i++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if h.sets != sets {
		t.Fatalf("steady-state Steps issued %d writes, want 0", h.sets-sets)
	}
}

// TestApplyStageDirtyZeroAlloc asserts the apply stage — one SetMax
// through hostCall per vCPU and the cache updates — allocates nothing
// even when every quota is dirty.
func TestApplyStageDirtyZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	// FaultyHost with no plan armed only tallies the calls, in maps whose
	// keys exist after the first step.
	h := platform.WithFaults(newBenchHost(20, 2), 1)
	c, err := New(h, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	vms := c.VMs()
	var rep StepReport
	flip := int64(0)
	allocs := testing.AllocsPerRun(50, func() {
		// Alternate every cap between two quota-distinct values so the
		// whole fleet is dirty on every run.
		flip = 1 - flip
		for _, vs := range vms {
			for _, v := range vs.VCPUs {
				v.CapUs = 400_000 + flip*10_000
			}
		}
		rep = StepReport{}
		c.apply(&rep)
	})
	if allocs != 0 {
		t.Fatalf("all-dirty apply allocates %.1f/op, want 0", allocs)
	}
	if h.Calls(platform.SiteSetMax) == 0 {
		t.Fatal("no quota write ran")
	}
}

// BenchmarkEstimateEnforce measures stages 2–3 plus the Eq. 6 market sum
// on the 40-core host.
func BenchmarkEstimateEnforce(b *testing.B) {
	c := benchController(b, 40, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.estimateAll()
		c.enforceBase()
		_ = c.market()
	}
}

// BenchmarkApplyStageDirty measures stage 6 with every quota dirty —
// the worst case; the steady-state best case (all clean, zero writes) is
// what BenchmarkApplyStage measures. The writes go through FaultyHost,
// so the figure includes its map tally per call.
func BenchmarkApplyStageDirty(b *testing.B) {
	c, err := New(platform.WithFaults(newBenchHost(40, 2), 1), DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := c.Step(); err != nil {
			b.Fatal(err)
		}
	}
	vms := c.VMs()
	b.ReportAllocs()
	b.ResetTimer()
	var rep StepReport
	for i := 0; i < b.N; i++ {
		fl := int64(i & 1)
		for _, vs := range vms {
			for _, v := range vs.VCPUs {
				v.CapUs = 400_000 + fl*10_000
			}
		}
		rep = StepReport{}
		c.apply(&rep)
	}
	_ = rep
}
