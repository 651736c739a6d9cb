// Command experiment regenerates the paper's tables and figures.
//
// Usage:
//
//	experiment -id fig7            # one artefact (fig1..fig14, table2..table5,
//	                               # cfs-a, cfs-b, placement, overhead)
//	experiment -id all             # everything
//	experiment -id fig7 -scale 1   # full-fidelity run (slower)
//	experiment -id fig7 -csv       # emit the raw series as CSV
//
// Frequency figures print an ASCII chart of the per-class mean virtual
// frequency over time plus the plateau statistics; efficiency figures
// print the per-run benchmark rates; the placement experiment prints the
// §IV-C comparison table.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"vfreq/internal/chaos"
	"vfreq/internal/experiments"
	"vfreq/internal/host"
	"vfreq/internal/metrics"
	"vfreq/internal/metricshttp"
	"vfreq/internal/placement"
	"vfreq/internal/report"
	"vfreq/internal/sched"
	"vfreq/internal/trace"
)

// metricsReg collects the run's controller/cluster series; every
// experiment built through withMetrics (and the dynamic/chaos runners)
// is armed on it. Served at -metrics-addr and dumped by -metrics-dump.
var metricsReg = metrics.NewRegistry()

// Chaos soak knobs (flags), used by the "chaos" artefact only.
var (
	chaosSteps int
	chaosSeed  int64
	chaosVMs   int
	chaosChurn bool
)

func main() {
	id := flag.String("id", "all", "artefact id: fig1, fig3..fig14, table2..table5, cfs-a, cfs-b, placement, dynamic, overhead, chaos, report, all")
	scale := flag.Float64("scale", 0.1, "time scale of the simulation (1 = the paper's full durations)")
	csv := flag.Bool("csv", false, "print raw series as CSV instead of charts")
	width := flag.Int("width", 72, "chart width")
	flag.IntVar(&chaosSteps, "chaos-steps", 5000, "fault-phase length of the chaos soak")
	flag.Int64Var(&chaosSeed, "chaos-seed", 1, "seed of the chaos soak (plans, workloads, churn)")
	flag.IntVar(&chaosVMs, "chaos-vms", 4, "VM population of the chaos soak")
	flag.BoolVar(&chaosChurn, "chaos-churn", false, "destroy/re-provision a VM every chaos epoch")
	metricsAddr := flag.String("metrics-addr", "",
		"serve Prometheus text exposition at /metrics and pprof at /debug/pprof/ on this address (e.g. localhost:9090) for the duration of the run")
	metricsDump := flag.Bool("metrics-dump", false,
		"append the run's metrics exposition to stdout as '# '-prefixed comment lines")
	flag.Parse()

	if *metricsAddr != "" {
		bound, err := metricshttp.Serve(*metricsAddr, metricsReg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiment:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "experiment: metrics at http://%s/metrics (pprof at /debug/pprof/)\n", bound)
	}
	if err := run(*id, *scale, *csv, *width); err != nil {
		fmt.Fprintln(os.Stderr, "experiment:", err)
		os.Exit(1)
	}
	if *metricsDump {
		fmt.Println("# metrics")
		_ = metricsReg.WriteText(trace.NewCommentWriter(os.Stdout, "# "))
	}
}

// withMetrics arms an experiment on the run's registry.
func withMetrics(e experiments.FreqExperiment) experiments.FreqExperiment {
	e.Metrics = metricsReg
	return e
}

var order = []string{
	"table4", "fig1", "fig3", "fig4", "fig5", "cfs-a", "cfs-b",
	"table2", "fig6", "fig7",
	"table3", "fig8", "fig9",
	"fig10", "fig11",
	"table5", "fig12", "fig13", "fig14",
	"placement", "dynamic", "overhead",
}

func run(id string, scale float64, csv bool, width int) error {
	if id == "all" {
		for _, one := range order {
			if err := run(one, scale, csv, width); err != nil {
				return fmt.Errorf("%s: %w", one, err)
			}
			fmt.Println()
		}
		return nil
	}
	switch id {
	case "fig1":
		return fig1()
	case "fig3":
		return estimatorFigure(experiments.Fig3Case(), width)
	case "fig4":
		return estimatorFigure(experiments.Fig4Case(), width)
	case "fig5":
		return estimatorFigure(experiments.Fig5Case(), width)
	case "table2":
		return classTable("Table II — workload on chetemi", experiments.Table2Classes())
	case "table3":
		return classTable("Table III — workload on chiclet", experiments.Table3Classes())
	case "table4":
		return table4()
	case "table5":
		return classTable("Table V — heterogeneous workload on chetemi", experiments.Table5Classes())
	case "fig6":
		return freqFigure("Fig. 6 — avg vCPU frequency, chetemi, execution A", experiments.Fig6(), scale, csv, width)
	case "fig7":
		return freqFigure("Fig. 7 — avg vCPU frequency, chetemi, execution B", experiments.Fig7(), scale, csv, width)
	case "fig8":
		return freqFigure("Fig. 8 — avg vCPU frequency, chiclet, execution A", experiments.Fig8(), scale, csv, width)
	case "fig9":
		return freqFigure("Fig. 9 — avg vCPU frequency, chiclet, execution B", experiments.Fig9(), scale, csv, width)
	case "fig10":
		a, b := experiments.Fig10()
		return efficiencyFigure("Fig. 10 — compression efficiency, chetemi", a, b, scale)
	case "fig11":
		a, b := experiments.Fig11()
		return efficiencyFigure("Fig. 11 — compression efficiency, chiclet", a, b, scale)
	case "fig12":
		return freqFigure("Fig. 12 — avg vCPU frequency, 2nd eval, execution A", experiments.Fig12(), scale, csv, width)
	case "fig13":
		return freqFigure("Fig. 13 — avg vCPU frequency, 2nd eval, execution B", experiments.Fig13(), scale, csv, width)
	case "fig14":
		a, b := experiments.Fig14()
		return efficiencyFigure("Fig. 14 — compression efficiency, 2nd eval", a, b, scale)
	case "cfs-a":
		res, err := experiments.CFSExperimentA(10_000_000)
		if err != nil {
			return err
		}
		fmt.Println("Experiment a) — 20 VMs × 4 vCPUs, no control:")
		fmt.Printf("  max/min vCPU speed spread: %.3f (paper: all vCPUs at the same speed)\n", res.Spread)
		return nil
	case "cfs-b":
		res, err := experiments.CFSExperimentB(10_000_000)
		if err != nil {
			return err
		}
		fmt.Println("Experiment b) — 40 × 1-vCPU VMs + 10 × 4-vCPU VMs, no control:")
		fmt.Printf("  share of resources to 1-vCPU VMs: %.2f (paper: 4/5)\n", res.OneVCPUShare)
		return nil
	case "placement":
		return placementTable()
	case "dynamic":
		return dynamicTable()
	case "report":
		rep, err := report.Run(report.Options{Scale: scale})
		if err != nil {
			return err
		}
		fmt.Print(rep.Markdown())
		fmt.Fprintf(os.Stderr, "report: %.1fs\n", rep.Elapsed.Seconds())
		if rep.Passed() != len(rep.Checks) {
			return fmt.Errorf("%d checks failed", len(rep.Checks)-rep.Passed())
		}
		return nil
	case "overhead":
		return overhead(scale)
	case "chaos":
		return chaosSoak()
	default:
		return fmt.Errorf("unknown artefact %q", id)
	}
}

// fig1 demonstrates the cgroup capability of the paper's Fig. 1: three
// threads on one core where a receives twice the CPU time of b and c.
func fig1() error {
	s := sched.New(1)
	mk := func(name string, quota int64) *sched.Thread {
		g := s.NewGroup(nil, name)
		if err := g.SetQuota(quota, 100_000); err != nil {
			panic(err)
		}
		return s.NewThread(g, nil)
	}
	a, b, c := mk("a", 50_000), mk("b", 25_000), mk("c", 25_000)
	for i := 0; i < 100; i++ {
		s.Tick(10_000)
	}
	total := float64(a.UsageUs + b.UsageUs + c.UsageUs)
	fmt.Println("Fig. 1 — cgroup CPU-time division, 3 threads on 1 core, 1 s:")
	fmt.Printf("  a (0.50 Mcycles): %5.1f%%\n", 100*float64(a.UsageUs)/total)
	fmt.Printf("  b (0.25 Mcycles): %5.1f%%\n", 100*float64(b.UsageUs)/total)
	fmt.Printf("  c (0.25 Mcycles): %5.1f%%\n", 100*float64(c.UsageUs)/total)
	return nil
}

func estimatorFigure(ec experiments.EstimatorCase, width int) error {
	chart, err := experiments.EstimatorFigure(ec, width)
	if err != nil {
		return err
	}
	fmt.Print(chart)
	return nil
}

func table4() error {
	fmt.Println("Table IV — nodes used for the experimentations:")
	fmt.Printf("  %-8s %-26s %-14s %-10s %-7s\n", "name", "CPU", "logical CPUs", "F_MAX", "memory")
	for _, spec := range []host.Spec{host.Chetemi(), host.Chiclet()} {
		fmt.Printf("  %-8s %-26s %-14d %-10s %d GB\n",
			spec.Name, spec.CPU, spec.Cores, fmt.Sprintf("%d MHz", spec.MaxMHz), spec.MemoryGB)
	}
	return nil
}

func classTable(title string, classes []experiments.Class) error {
	fmt.Println(title + ":")
	fmt.Printf("  %-8s %-6s %-10s %-10s %-14s %-8s\n",
		"VM", "vCPUs", "frequency", "instances", "workload", "start")
	for _, cl := range classes {
		fmt.Printf("  %-8s %-6d %-10s %-10d %-14s t=%ds\n",
			cl.Template.Name, cl.Template.VCPUs,
			fmt.Sprintf("%d MHz", cl.Template.FreqMHz),
			cl.Count, cl.Kind, cl.StartUs/1_000_000)
	}
	return nil
}

func freqFigure(title string, e experiments.FreqExperiment, scale float64, csv bool, width int) error {
	e = withMetrics(e)
	res, err := experiments.Scale(e, scale).Run()
	if err != nil {
		return err
	}
	if csv {
		fmt.Print(res.Rec.CSV())
		return nil
	}
	var names []string
	for _, cl := range e.Classes {
		names = append(names, cl.Template.Name)
	}
	fmt.Print(res.Rec.Chart(title+" (MHz over seconds)", names, width, 14))
	fmt.Printf("  steady-state medians (last third): ")
	dur := float64(experiments.Scale(e, scale).DurationUs) / 1e6
	var parts []string
	for _, n := range names {
		parts = append(parts,
			fmt.Sprintf("%s=%.0f MHz", n, res.Rec.Series(n).MedianRange(dur*2/3, dur)))
	}
	fmt.Println(strings.Join(parts, ", "))
	fmt.Printf("  avg core frequency variance: %.0f MHz² — controller step: %v (monitor %v)\n",
		res.AvgCoreVarMHz, res.AvgStep, res.AvgMonitor)
	if len(res.SLAViolations) > 0 {
		var sla []string
		for _, n := range names {
			if v, ok := res.SLAViolations[n]; ok {
				sla = append(sla, fmt.Sprintf("%s=%.0f%%", n, 100*v))
			}
		}
		fmt.Printf("  SLA violations (below 95%% of template while loaded): %s\n",
			strings.Join(sla, ", "))
	}
	fmt.Printf("  node energy over the window: %.0f kJ\n", res.EnergyJoules/1000)
	return nil
}

func efficiencyFigure(title string, a, b experiments.FreqExperiment, scale float64) error {
	a, b = withMetrics(a), withMetrics(b)
	resA, err := experiments.Scale(a, scale).Run()
	if err != nil {
		return err
	}
	resB, err := experiments.Scale(b, scale).Run()
	if err != nil {
		return err
	}
	fmt.Println(title + " — mean benchmark rate per iteration (MHz-equivalent):")
	classes := map[string]bool{}
	for _, cl := range a.Classes {
		if cl.Kind == experiments.Compress {
			classes[cl.Template.Name] = true
		}
	}
	var names []string
	for n := range classes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, class := range names {
		ra := resA.MeanRateByClass(class)
		rb := resB.MeanRateByClass(class)
		fmt.Printf("  %s instances (A=no control, B=controlled):\n", class)
		fmt.Printf("    %-4s %-12s %-12s\n", "run", "A rate", "B rate")
		n := len(ra)
		if len(rb) > n {
			n = len(rb)
		}
		for i := 0; i < n; i++ {
			av, bv := "-", "-"
			if i < len(ra) {
				av = fmt.Sprintf("%.0f", ra[i])
			}
			if i < len(rb) {
				bv = fmt.Sprintf("%.0f", rb[i])
			}
			fmt.Printf("    %-4d %-12s %-12s\n", i+1, av, bv)
		}
	}
	return nil
}

func placementTable() error {
	rows, err := experiments.RunPlacementComparison()
	if err != nil {
		return err
	}
	fmt.Println("§IV-C — placement of 250 small + 50 medium + 100 large on 12 chetemi + 10 chiclet:")
	fmt.Printf("  %-42s %-6s %-9s %-12s %-12s %-10s\n",
		"policy", "nodes", "unplaced", "max lg/chic", "max sm/chet", "idle save")
	for _, r := range rows {
		fmt.Printf("  %-42s %-6d %-9d %-12d %-12d %.0f W\n",
			r.Label, r.UsedNodes, r.Unplaced, r.MaxLargePerChiclet,
			r.MaxSmallPerChetemi, r.IdleSavingsWatts)
	}
	return nil
}

// dynamicTable extends §IV-C to a dynamic arrival stream: same Poisson
// workload admitted under the classic and the Eq. 7 constraints, with
// idle nodes powered off.
func dynamicTable() error {
	base := experiments.DynamicClusterExperiment{
		Nodes:             experimentsDynamicNodes(),
		ArrivalsPerStep:   1.2,
		MeanLifetimeSteps: 10,
		Steps:             60,
		Seed:              42,
		FailThreshold:     3,
		Metrics:           metricsReg,
	}
	fmt.Println("Dynamic cluster (Poisson arrivals, exponential lifetimes, idle nodes off):")
	fmt.Printf("  %-28s %-9s %-9s %-10s %-12s %-12s\n",
		"policy", "deployed", "rejected", "avg nodes", "active kJ", "always-on kJ")
	for _, c := range []struct {
		label  string
		policy placement.Policy
	}{
		{"vCPU-count (classic)", placement.Policy{Mode: placement.CoreCount, Factor: 1, Memory: true}},
		{"virtual frequency (Eq. 7)", placement.Policy{Mode: placement.VirtualFrequency, Factor: 1, Memory: true}},
	} {
		e := base
		e.Policy = c.policy
		res, err := e.Run()
		if err != nil {
			return err
		}
		fmt.Printf("  %-28s %-9d %-9d %-10.2f %-12.1f %-12.1f\n",
			c.label, res.Deployed, res.Rejected, res.MeanUsedNodes,
			res.ActiveEnergyJ/1000, res.AlwaysOnEnergyJ/1000)
		fmt.Printf("    cluster step: mean %.0f µs, max %d µs\n",
			res.MeanStepUs, res.MaxStepUs)
		if res.Faults > 0 || res.DegradedVCPUSteps > 0 {
			fmt.Printf("    degradation: %d faults, %d degraded vCPU-steps\n",
				res.Faults, res.DegradedVCPUSteps)
		}
		if res.NodeFailureSteps > 0 || res.Evacuations > 0 {
			fmt.Printf("    failures: %d node-failure steps, %d VMs evacuated, %d stranded VM-steps\n",
				res.NodeFailureSteps, res.Evacuations, res.StrandedVMSteps)
		}
	}
	return nil
}

// experimentsDynamicNodes is a 6-node rack of 8-core machines.
func experimentsDynamicNodes() []host.Spec {
	spec := host.Chetemi()
	spec.Cores = 8
	nodes := make([]host.Spec, 6)
	for i := range nodes {
		nodes[i] = spec
	}
	return nodes
}

// chaosSoak runs the randomized robustness soak: thousands of control
// periods under randomized fault and latency injection, with the
// standing invariants checked after every step and full recovery
// demanded at the end. Not part of "all" — it validates the
// implementation rather than reproducing a paper artefact.
func chaosSoak() error {
	fmt.Printf("Chaos soak — %d steps, seed %d, %d VMs, churn %v:\n",
		chaosSteps, chaosSeed, chaosVMs, chaosChurn)
	res, err := chaos.Soak(chaos.Options{
		Seed:    chaosSeed,
		Steps:   chaosSteps,
		VMs:     chaosVMs,
		Churn:   chaosChurn,
		Metrics: metricsReg,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("  %s\n", res)
	fmt.Println("  all per-step invariants held: conservation, report consistency, checkpoint round-trips, no panics")
	return nil
}

func overhead(scale float64) error {
	res, err := experiments.Scale(withMetrics(experiments.Fig7()), scale).Run()
	if err != nil {
		return err
	}
	fmt.Println("Controller overhead (paper: 5 ms/step, 4 ms monitoring, on real hardware):")
	fmt.Printf("  avg step: %v   avg monitoring stage: %v   steps: %d\n",
		res.AvgStep, res.AvgMonitor, res.Controller.Steps())
	tm := res.Controller.LastTimings()
	fmt.Printf("  last step breakdown: monitor=%v estimate=%v enforce=%v auction=%v distribute=%v apply=%v\n",
		tm.Monitor, tm.Estimate, tm.Enforce, tm.Auction, tm.Distribute, tm.Apply)
	return nil
}
