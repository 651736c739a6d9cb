// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (see EXPERIMENTS.md for the index). Each benchmark
// regenerates its artefact at a reduced time scale and reports the
// headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reprints the paper's results column by column. Absolute wall-clock
// numbers measure this simulator, not the authors' testbed; the reported
// metrics carry the reproduced shape (plateau frequencies, node counts,
// per-run rates).
package vfreq

import (
	"fmt"
	"testing"

	"vfreq/internal/core"
	"vfreq/internal/experiments"
	"vfreq/internal/host"
	"vfreq/internal/placement"
	"vfreq/internal/platform"
	"vfreq/internal/sched"
	"vfreq/internal/vm"
	"vfreq/internal/workload"
)

// benchScale keeps each benchmark iteration around a hundred
// milliseconds while preserving experiment dynamics (all clocks scale
// together — see experiments.Scale).
const benchScale = 0.02

// runScaled runs a preset experiment at benchScale and reports the
// steady-state medians of the named series as metrics.
func runScaled(b *testing.B, e experiments.FreqExperiment, series ...string) {
	b.Helper()
	scaled := experiments.Scale(e, benchScale)
	dur := float64(scaled.DurationUs) / 1e6
	var res *experiments.FreqResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = scaled.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, name := range series {
		if s := res.Rec.Series(name); s != nil {
			b.ReportMetric(s.MedianRange(dur*2/3, dur), name+"_MHz")
		}
	}
	b.ReportMetric(float64(res.AvgStep.Microseconds()), "ctrl_step_µs")
}

// Fig. 1 — cgroup CPU-time division between three threads by quotas of
// 0.50/0.25/0.25 of the period.
func BenchmarkFig1CgroupShares(b *testing.B) {
	var shareA float64
	for i := 0; i < b.N; i++ {
		s := sched.New(1)
		mk := func(q int64) *sched.Thread {
			g := s.NewGroup(nil, "g")
			if err := g.SetQuota(q, 100_000); err != nil {
				b.Fatal(err)
			}
			return s.NewThread(g, nil)
		}
		ta, tb, tc := mk(50_000), mk(25_000), mk(25_000)
		for k := 0; k < 100; k++ {
			s.Tick(10_000)
		}
		shareA = float64(ta.UsageUs) / float64(ta.UsageUs+tb.UsageUs+tc.UsageUs)
	}
	b.ReportMetric(shareA, "thread_a_share")
}

// Fig. 2 — the six-stage control loop: cost of one full Step on the
// paper's Table II workload (the paper reports 5 ms on chetemi).
func BenchmarkFig2ControllerStep(b *testing.B) {
	machine, err := host.New(host.Chetemi())
	if err != nil {
		b.Fatal(err)
	}
	mgr, err := vm.NewManager(machine)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := mgr.Provision(fmt.Sprintf("small-%02d", i), vm.Small(),
			[]workload.Source{workload.Busy(), workload.Busy()}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		srcs := []workload.Source{workload.Busy(), workload.Busy(), workload.Busy(), workload.Busy()}
		if _, err := mgr.Provision(fmt.Sprintf("large-%02d", i), vm.Large(), srcs); err != nil {
			b.Fatal(err)
		}
	}
	ctrl, err := core.New(platform.NewSim(mgr), core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	machine.Advance(1_000_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ctrl.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// estimatorBench drives one vCPU through a consumption pattern via the
// full controller and returns its final cap, exercising the trigger paths
// of Figs. 3–5.
func estimatorBench(b *testing.B, pattern []int64) int64 {
	b.Helper()
	var cap int64
	for i := 0; i < b.N; i++ {
		h := newScriptHost(1, 2400)
		h.AddVM("v", 1, 2400) // guarantee = a full core: cap tracks estimate
		ctrl, err := core.New(h, core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, u := range pattern {
			h.Consume("v", 0, u)
			if err := ctrl.Step(); err != nil {
				b.Fatal(err)
			}
		}
		cap = ctrl.VM("v").VCPUs[0].CapUs
	}
	return cap
}

// Fig. 3 — increasing consumption crosses the increase trigger and the
// cap doubles.
func BenchmarkFig3IncreaseTrigger(b *testing.B) {
	cap := estimatorBench(b, []int64{0, 100_000, 200_000, 400_000, 780_000, 999_000})
	b.ReportMetric(float64(cap), "final_cap_µs")
}

// Fig. 4 — decreasing consumption crosses the decrease trigger and the
// cap shrinks gently.
func BenchmarkFig4DecreaseTrigger(b *testing.B) {
	cap := estimatorBench(b, []int64{0, 900_000, 900_000, 600_000, 300_000, 100_000})
	b.ReportMetric(float64(cap), "final_cap_µs")
}

// Fig. 5 — stable consumption: the cap recalibrates just above the
// observed usage.
func BenchmarkFig5StableCalibration(b *testing.B) {
	cap := estimatorBench(b, []int64{0, 600_000, 600_000, 600_000, 600_000, 600_000})
	b.ReportMetric(float64(cap), "final_cap_µs")
}

// Tables II/III/V — provisioning the evaluation workloads (KVM cgroup
// layout creation cost).
func benchProvision(b *testing.B, node host.Spec, classes []experiments.Class) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		machine, err := host.New(node)
		if err != nil {
			b.Fatal(err)
		}
		mgr, err := vm.NewManager(machine)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for _, cl := range classes {
			for k := 0; k < cl.Count; k++ {
				if _, err := mgr.Provision(fmt.Sprintf("%s-%02d", cl.Template.Name, k),
					cl.Template, nil); err != nil {
					b.Fatal(err)
				}
				n++
			}
		}
		if n == 0 {
			b.Fatal("nothing provisioned")
		}
	}
}

func BenchmarkTable2WorkloadChetemi(b *testing.B) {
	benchProvision(b, host.Chetemi(), experiments.Table2Classes())
}

func BenchmarkTable3WorkloadChiclet(b *testing.B) {
	benchProvision(b, host.Chiclet(), experiments.Table3Classes())
}

// Table IV — booting the two evaluation nodes.
func BenchmarkTable4NodeBoot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, spec := range []host.Spec{host.Chetemi(), host.Chiclet()} {
			if _, err := host.New(spec); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkTable5WorkloadHeterogeneous(b *testing.B) {
	benchProvision(b, host.Chetemi(), experiments.Table5Classes())
}

// Figs. 6–9 — frequency-over-time experiments, both nodes, both modes.
func BenchmarkFig6ChetemiA(b *testing.B) { runScaled(b, experiments.Fig6(), "small", "large") }
func BenchmarkFig7ChetemiB(b *testing.B) { runScaled(b, experiments.Fig7(), "small", "large") }
func BenchmarkFig8ChicletA(b *testing.B) { runScaled(b, experiments.Fig8(), "small", "large") }
func BenchmarkFig9ChicletB(b *testing.B) { runScaled(b, experiments.Fig9(), "small", "large") }

// efficiencyBench reports first- and late-run benchmark rates for a
// class, A vs B (Figs. 10/11/14).
func efficiencyBench(b *testing.B, mk func() (experiments.FreqExperiment, experiments.FreqExperiment), class string) {
	b.Helper()
	expA, expB := mk()
	sA := experiments.Scale(expA, benchScale)
	sB := experiments.Scale(expB, benchScale)
	var ra, rb []float64
	for i := 0; i < b.N; i++ {
		resA, err := sA.Run()
		if err != nil {
			b.Fatal(err)
		}
		resB, err := sB.Run()
		if err != nil {
			b.Fatal(err)
		}
		ra = resA.MeanRateByClass(class)
		rb = resB.MeanRateByClass(class)
	}
	if len(ra) > 1 && len(rb) > 1 {
		b.ReportMetric(ra[1], "runA_early_MHz")
		b.ReportMetric(rb[1], "runB_early_MHz")
	}
	if len(ra) > 4 && len(rb) > 4 {
		b.ReportMetric(ra[4], "runA_contended_MHz")
		b.ReportMetric(rb[4], "runB_contended_MHz")
	}
}

func BenchmarkFig10SmallChetemi(b *testing.B) { efficiencyBench(b, experiments.Fig10, "small") }
func BenchmarkFig11SmallChiclet(b *testing.B) { efficiencyBench(b, experiments.Fig11, "small") }

// Figs. 12/13 — the heterogeneous second evaluation.
func BenchmarkFig12HeteroA(b *testing.B) {
	runScaled(b, experiments.Fig12(), "small", "medium", "large")
}
func BenchmarkFig13HeteroB(b *testing.B) {
	// The medium class completes its openssl batch around 70 % of the
	// experiment; report the three plateaus from the window where all
	// classes are active, and the post-completion boost of the others.
	scaled := experiments.Scale(experiments.Fig13(), benchScale)
	dur := float64(scaled.DurationUs) / 1e6
	var res *experiments.FreqResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = scaled.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, name := range []string{"small", "medium", "large"} {
		b.ReportMetric(res.Rec.Series(name).MedianRange(dur*0.45, dur*0.62), name+"_MHz")
	}
	b.ReportMetric(res.Rec.Series("small").MedianRange(dur*0.85, dur), "small_after_MHz")
}
func BenchmarkFig14HeteroSmall(b *testing.B) { efficiencyBench(b, experiments.Fig14, "small") }

// §IV-A2 experiments a) and b) — CFS sharing probes.
func BenchmarkCFSExperimentA(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.CFSExperimentA(2_000_000)
		if err != nil {
			b.Fatal(err)
		}
		spread = res.Spread
	}
	b.ReportMetric(spread, "vcpu_speed_spread")
}

func BenchmarkCFSExperimentB(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.CFSExperimentB(2_000_000)
		if err != nil {
			b.Fatal(err)
		}
		share = res.OneVCPUShare
	}
	b.ReportMetric(share, "one_vcpu_share")
}

// §IV-C — the placement evaluation: nodes used under each policy.
func BenchmarkPlacement(b *testing.B) {
	var rows []experiments.PlacementRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunPlacementComparison()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch {
		case r.Policy.Mode == placement.CoreCount && r.Policy.Factor == 1:
			b.ReportMetric(float64(r.UsedNodes), "nodes_classic")
		case r.Policy.Mode == placement.VirtualFrequency && !r.Policy.CoreSplitting &&
			r.Algorithm == placement.BestFit:
			b.ReportMetric(float64(r.UsedNodes), "nodes_eq7")
		case r.Policy.Mode == placement.CoreCount && r.Policy.Factor > 1:
			b.ReportMetric(float64(r.UsedNodes), "nodes_consol18")
			b.ReportMetric(float64(r.MaxLargePerChiclet), "hotspot_large_per_chiclet")
		}
	}
}

// Dynamic cluster (extension of §IV-C): the same Poisson arrival stream
// admitted under the classic and Eq. 7 constraints — node and energy
// savings over time.
func BenchmarkDynamicCluster(b *testing.B) {
	spec := host.Chetemi()
	spec.Cores = 8
	nodes := make([]host.Spec, 6)
	for i := range nodes {
		nodes[i] = spec
	}
	base := experiments.DynamicClusterExperiment{
		Nodes:             nodes,
		ArrivalsPerStep:   1.2,
		MeanLifetimeSteps: 10,
		Steps:             40,
		Seed:              42,
	}
	var eq7Nodes, classicNodes, eq7kJ, classickJ float64
	for i := 0; i < b.N; i++ {
		e := base
		e.Policy = placement.Policy{Mode: placement.VirtualFrequency, Factor: 1, Memory: true}
		r, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		eq7Nodes, eq7kJ = r.MeanUsedNodes, r.ActiveEnergyJ/1000
		e.Policy = placement.Policy{Mode: placement.CoreCount, Factor: 1, Memory: true}
		r, err = e.Run()
		if err != nil {
			b.Fatal(err)
		}
		classicNodes, classickJ = r.MeanUsedNodes, r.ActiveEnergyJ/1000
	}
	b.ReportMetric(eq7Nodes, "nodes_eq7")
	b.ReportMetric(classicNodes, "nodes_classic")
	b.ReportMetric(eq7kJ, "energy_eq7_kJ")
	b.ReportMetric(classickJ, "energy_classic_kJ")
}

// Controller overhead — the paper's 5 ms/4 ms measurement, reported per
// stage.
func BenchmarkControllerOverhead(b *testing.B) {
	scaled := experiments.Scale(experiments.Fig7(), benchScale)
	var res *experiments.FreqResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = scaled.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.AvgStep.Microseconds()), "step_µs")
	b.ReportMetric(float64(res.AvgMonitor.Microseconds()), "monitor_µs")
}
