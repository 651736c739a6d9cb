package host_test

import (
	"fmt"
	"math/rand"
	"testing"

	"vfreq/internal/core"
	"vfreq/internal/host"
	"vfreq/internal/platform"
	"vfreq/internal/raceflag"
	"vfreq/internal/vm"
	"vfreq/internal/workload"
)

// dynamicNode is a chetemi carrying the paper's Table V mix (14 small, 8
// medium and 6 large VMs, 84 vCPUs) under a default controller over
// platform.Sim. Each VM replays seeded phases for the given number of
// periods, all its vCPUs alike: idle (0.01 of a core), partial (a level
// drawn from [0.2, 0.8]) or saturated, left with probability 0.05 per
// period for one of the other two.
func dynamicNode(tb testing.TB, periods int) (*host.Machine, *core.Controller) {
	tb.Helper()
	m, err := host.New(host.Chetemi())
	if err != nil {
		tb.Fatal(err)
	}
	mgr, err := vm.NewManager(m)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := core.DefaultConfig()
	rng := rand.New(rand.NewSource(1))
	level := func(phase int) float64 {
		return [3]float64{0.01, 0.2 + 0.6*rng.Float64(), 1}[phase]
	}
	mix := []struct {
		tpl vm.Template
		n   int
	}{{vm.Small(), 14}, {vm.Medium(), 8}, {vm.Large(), 6}}
	for _, part := range mix {
		for i := 0; i < part.n; i++ {
			samples := make([]float64, periods)
			phase := rng.Intn(3)
			l := level(phase)
			for k := range samples {
				if rng.Float64() < 0.05 {
					phase = (phase + 1 + rng.Intn(2)) % 3
					l = level(phase)
				}
				samples[k] = l
			}
			srcs := make([]workload.Source, part.tpl.VCPUs)
			for j := range srcs {
				srcs[j] = &workload.Trace{Samples: samples, StepUs: cfg.PeriodUs}
			}
			if _, err := mgr.Provision(fmt.Sprintf("%s-%02d", part.tpl.Name, i), part.tpl, srcs); err != nil {
				tb.Fatal(err)
			}
		}
	}
	ctrl, err := core.New(platform.NewSim(mgr), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return m, ctrl
}

// period advances the node by one controller period and steps the
// controller.
func period(tb testing.TB, m *host.Machine, ctrl *core.Controller) {
	m.Advance(core.DefaultConfig().PeriodUs)
	if err := ctrl.Step(); err != nil {
		tb.Fatal(err)
	}
}

// dynamicWarmup is the periods a dynamic node runs before it is measured:
// the scheduler's scratch, the replay ring, the window memo and the
// controller's buffers have all grown by then.
const dynamicWarmup = 20

// BenchmarkAdvanceDynamic is one period of the dynamic node, Advance and
// Step: what the repository benchmark's node_dynamic pays per
// node-period. The controller's quota writes and the phase switches land
// on the period's first boundary, so its first window is ticked; the
// other nine repeat, the first few of them placed afresh, tick by tick,
// until the placement settles.
func BenchmarkAdvanceDynamic(b *testing.B) {
	m, ctrl := dynamicNode(b, dynamicWarmup+b.N)
	for k := 0; k < dynamicWarmup; k++ {
		period(b, m, ctrl)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		period(b, m, ctrl)
	}
}

// TestAdvanceDynamicZeroAlloc gates the dynamic node's steady state:
// once warm, its periods, phase switches and all, do not allocate.
func TestAdvanceDynamicZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const runs = 100
	m, ctrl := dynamicNode(t, dynamicWarmup+runs+1)
	for k := 0; k < dynamicWarmup; k++ {
		period(t, m, ctrl)
	}
	if allocs := testing.AllocsPerRun(runs, func() { period(t, m, ctrl) }); allocs != 0 {
		t.Fatalf("a steady dynamic period allocates %.2f/op, want 0", allocs)
	}
}
