package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"vfreq/internal/cluster"
	"vfreq/internal/host"
	"vfreq/internal/metrics"
	"vfreq/internal/placement"
	"vfreq/internal/vm"
	"vfreq/internal/workload"
)

// DynamicClusterExperiment extends the paper's static §IV-C comparison to
// a dynamic setting: VMs arrive as a Poisson process with exponential
// lifetimes and are admitted under a policy; idle nodes are powered off.
// It quantifies the conclusion's energy argument — frequency-aware
// admission packs the same workload on fewer powered nodes over time.
type DynamicClusterExperiment struct {
	Nodes []host.Spec
	// Policy is the admission constraint under test.
	Policy placement.Policy
	// ArrivalsPerStep is the mean number of VM arrivals per control
	// period.
	ArrivalsPerStep float64
	// MeanLifetimeSteps is the mean VM lifetime in control periods.
	MeanLifetimeSteps float64
	// Steps is the experiment length in control periods.
	Steps int
	// Seed makes the arrival process reproducible.
	Seed int64
	// FailThreshold enables node-failure detection and evacuation (see
	// cluster.Config.FailThreshold); 0 disables it.
	FailThreshold int
	// Metrics, when non-nil, receives the cluster and per-node
	// controller series for the run.
	Metrics *metrics.Registry
}

// DynamicResult summarises a dynamic run.
type DynamicResult struct {
	Deployed        int
	Rejected        int
	Completed       int
	MeanUsedNodes   float64
	PeakUsedNodes   int
	ActiveEnergyJ   float64
	AlwaysOnEnergyJ float64
	Migrations      int
	// DegradedVCPUSteps sums the degraded-vCPU count over all steps (a
	// vCPU degraded for k periods contributes k) and Faults the recorded
	// host faults — both zero on a healthy cluster.
	DegradedVCPUSteps int
	Faults            int
	// NodeFailureSteps counts steps during which at least one node was
	// unreachable; the run continues, since the cluster isolates node
	// failures and (with FailThreshold set) evacuates the failed nodes.
	NodeFailureSteps int
	// Evacuations counts VMs moved off failed nodes, StrandedVMSteps
	// the per-step sum of VMs stuck on a failed node with no target.
	Evacuations     int
	StrandedVMSteps int
	// MeanStepUs and MaxStepUs record the wall time of cluster Steps —
	// the decision-latency figure the step pool exists to bound. They
	// vary run to run; everything else is seeded.
	MeanStepUs float64
	MaxStepUs  int64
}

// Run executes the experiment.
func (e DynamicClusterExperiment) Run() (*DynamicResult, error) {
	if e.Steps <= 0 || e.ArrivalsPerStep <= 0 || e.MeanLifetimeSteps <= 0 {
		return nil, fmt.Errorf("experiments: dynamic run needs positive steps, arrivals and lifetime")
	}
	cl, err := cluster.New(e.Nodes, cluster.Config{
		Policy:        e.Policy,
		FailThreshold: e.FailThreshold,
	})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	if e.Metrics != nil {
		cl.ArmMetrics(e.Metrics)
	}
	rng := rand.New(rand.NewSource(e.Seed))
	templates := []vm.Template{vm.Small(), vm.Medium(), vm.Large()}
	type liveVM struct {
		name  string
		until int
	}
	var live []liveVM
	res := &DynamicResult{}
	nextID := 0
	var usedSum, stepUsSum int64
	for step := 0; step < e.Steps; step++ {
		// Departures first.
		kept := live[:0]
		for _, v := range live {
			if step >= v.until {
				if err := cl.Undeploy(v.name); err != nil {
					return nil, err
				}
				res.Completed++
				continue
			}
			kept = append(kept, v)
		}
		live = kept
		// Poisson arrivals.
		n := poissonDraw(rng, e.ArrivalsPerStep)
		for k := 0; k < n; k++ {
			tpl := templates[rng.Intn(len(templates))]
			name := fmt.Sprintf("vm-%05d", nextID)
			nextID++
			srcs := make([]workload.Source, tpl.VCPUs)
			for i := range srcs {
				srcs[i] = workload.Busy()
			}
			if _, err := cl.Deploy(name, tpl, srcs); err != nil {
				res.Rejected++
				continue
			}
			res.Deployed++
			life := int(rng.ExpFloat64()*e.MeanLifetimeSteps) + 1
			live = append(live, liveVM{name: name, until: step + life})
		}
		start := time.Now()
		err := cl.Step()
		stepUs := time.Since(start).Microseconds()
		stepUsSum += stepUs
		if stepUs > res.MaxStepUs {
			res.MaxStepUs = stepUs
		}
		if err != nil {
			// Node failures are isolated by the cluster: the surviving
			// nodes were stepped and (with FailThreshold set) the failed
			// ones are being evacuated, so the run continues.
			res.NodeFailureSteps++
		}
		h := cl.Health()
		res.DegradedVCPUSteps += h.DegradedVCPUs
		res.Faults += h.Faults
		res.StrandedVMSteps += h.StrandedVMs
		used := cl.UsedNodes()
		usedSum += int64(used)
		if used > res.PeakUsedNodes {
			res.PeakUsedNodes = used
		}
	}
	res.MeanUsedNodes = float64(usedSum) / float64(e.Steps)
	res.MeanStepUs = float64(stepUsSum) / float64(e.Steps)
	res.ActiveEnergyJ = cl.ActiveEnergyJoules()
	res.AlwaysOnEnergyJ = cl.TotalEnergyJoules()
	res.Migrations = cl.Migrations()
	res.Evacuations = cl.Evacuations()
	return res, nil
}

// poissonDraw samples a Poisson variate (Knuth's method).
func poissonDraw(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := 1.0
	threshold := math.Exp(-mean)
	k := 0
	for {
		l *= rng.Float64()
		if l <= threshold {
			return k
		}
		k++
		if k > 1_000 {
			return k
		}
	}
}
