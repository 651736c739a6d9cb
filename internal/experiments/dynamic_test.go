package experiments

import (
	"math/rand"
	"testing"

	"vfreq/internal/host"
	"vfreq/internal/placement"
)

func smallCluster() []host.Spec {
	spec := host.Chetemi()
	spec.Cores = 8 // 19200 MHz per node
	var nodes []host.Spec
	for i := 0; i < 4; i++ {
		nodes = append(nodes, spec)
	}
	return nodes
}

func TestDynamicValidation(t *testing.T) {
	e := DynamicClusterExperiment{Nodes: smallCluster()}
	if _, err := e.Run(); err == nil {
		t.Fatal("zero steps accepted")
	}
}

func TestDynamicRunBasics(t *testing.T) {
	e := DynamicClusterExperiment{
		Nodes:             smallCluster(),
		Policy:            placement.Policy{Mode: placement.VirtualFrequency, Factor: 1, Memory: true},
		ArrivalsPerStep:   1.0,
		MeanLifetimeSteps: 8,
		Steps:             40,
		Seed:              1,
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Deployed == 0 {
		t.Fatal("nothing deployed")
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if res.MeanUsedNodes <= 0 || res.PeakUsedNodes == 0 {
		t.Fatalf("node accounting empty: %+v", res)
	}
	if res.ActiveEnergyJ <= 0 || res.AlwaysOnEnergyJ < res.ActiveEnergyJ {
		t.Fatalf("energy accounting wrong: active=%f total=%f",
			res.ActiveEnergyJ, res.AlwaysOnEnergyJ)
	}
}

func TestDynamicDeterministicSeed(t *testing.T) {
	e := DynamicClusterExperiment{
		Nodes:             smallCluster(),
		Policy:            placement.Policy{Mode: placement.VirtualFrequency, Factor: 1, Memory: true},
		ArrivalsPerStep:   0.8,
		MeanLifetimeSteps: 5,
		Steps:             25,
		Seed:              7,
	}
	a, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Deployed != b.Deployed || a.Rejected != b.Rejected || a.MeanUsedNodes != b.MeanUsedNodes {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

// The paper's energy argument in a dynamic setting: Eq. 7 admission uses
// fewer powered nodes than the classic vCPU-count constraint for the same
// arrival stream, hence less active energy.
func TestDynamicEq7BeatsCoreCount(t *testing.T) {
	base := DynamicClusterExperiment{
		Nodes:             smallCluster(),
		ArrivalsPerStep:   1.2,
		MeanLifetimeSteps: 10,
		Steps:             50,
		Seed:              42,
	}
	eq7 := base
	eq7.Policy = placement.Policy{Mode: placement.VirtualFrequency, Factor: 1, Memory: true}
	classic := base
	classic.Policy = placement.Policy{Mode: placement.CoreCount, Factor: 1, Memory: true}

	rEq7, err := eq7.Run()
	if err != nil {
		t.Fatal(err)
	}
	rClassic, err := classic.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Same arrival stream (same seed): Eq. 7 packs more VMs per node.
	if rEq7.MeanUsedNodes >= rClassic.MeanUsedNodes {
		t.Fatalf("Eq. 7 mean nodes %.2f not below classic %.2f",
			rEq7.MeanUsedNodes, rClassic.MeanUsedNodes)
	}
	if rEq7.ActiveEnergyJ >= rClassic.ActiveEnergyJ {
		t.Fatalf("Eq. 7 energy %.0f J not below classic %.0f J",
			rEq7.ActiveEnergyJ, rClassic.ActiveEnergyJ)
	}
	// Eq. 7 also rejects fewer VMs (frequency-weighted capacity is the
	// real constraint for this mix).
	if rEq7.Rejected > rClassic.Rejected {
		t.Fatalf("Eq. 7 rejected %d > classic %d", rEq7.Rejected, rClassic.Rejected)
	}
}

func TestPoissonDrawMean(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const mean = 1.2
	var sum int
	const n = 20_000
	for i := 0; i < n; i++ {
		sum += poissonDraw(rng, mean)
	}
	got := float64(sum) / n
	if got < 1.1 || got > 1.3 {
		t.Fatalf("poisson mean = %.3f, want ≈%v", got, mean)
	}
	if poissonDraw(rng, 0) != 0 {
		t.Fatal("zero mean should draw 0")
	}
}
