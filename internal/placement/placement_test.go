package placement

import (
	"fmt"
	"testing"
	"testing/quick"
)

func chetemi() NodeSpec {
	return NodeSpec{Name: "chetemi", Cores: 40, MaxFreqMHz: 2400, MemoryGB: 256,
		IdleWatts: 97, MaxWatts: 220}
}

func chiclet() NodeSpec {
	return NodeSpec{Name: "chiclet", Cores: 64, MaxFreqMHz: 2400, MemoryGB: 128,
		IdleWatts: 110, MaxWatts: 190}
}

func small() VMSpec {
	return VMSpec{Template: "small", VCPUs: 2, FreqMHz: 500, MemoryGB: 2}
}
func medium() VMSpec {
	return VMSpec{Template: "medium", VCPUs: 4, FreqMHz: 1200, MemoryGB: 4}
}
func large() VMSpec {
	return VMSpec{Template: "large", VCPUs: 4, FreqMHz: 1800, MemoryGB: 8}
}

func repeatVMs(v VMSpec, n int) []VMSpec {
	out := make([]VMSpec, n)
	for i := range out {
		out[i] = v
		out[i].Name = fmt.Sprintf("%s-%d", v.Template, i)
	}
	return out
}

func TestSpecValidation(t *testing.T) {
	bad := chetemi()
	bad.Cores = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid node accepted")
	}
	badVM := small()
	badVM.FreqMHz = 0
	if err := badVM.Validate(); err == nil {
		t.Fatal("invalid VM accepted")
	}
	if err := (Policy{Factor: 0}).Validate(); err == nil {
		t.Fatal("zero factor accepted")
	}
	if err := (Policy{Mode: CoreCount, Factor: 1, CoreSplitting: true}).Validate(); err == nil {
		t.Fatal("core splitting without virtual-frequency mode accepted")
	}
}

func TestCoreCountConstraint(t *testing.T) {
	p := Policy{Mode: CoreCount, Factor: 1}
	n := &Node{Spec: NodeSpec{Name: "n", Cores: 4, MaxFreqMHz: 2400, MemoryGB: 64}}
	if !n.Fits(large(), p) {
		t.Fatal("4 vCPUs on empty 4-core node rejected")
	}
	n.Place(large(), p)
	if n.Fits(small(), p) {
		t.Fatal("5th/6th vCPU accepted with factor 1")
	}
	// Factor 1.5 → 6 vCPUs allowed.
	p15 := Policy{Mode: CoreCount, Factor: 1.5}
	if !n.Fits(small(), p15) {
		t.Fatal("consolidation factor not honoured")
	}
}

func TestVirtualFrequencyConstraintEq7(t *testing.T) {
	p := Policy{Mode: VirtualFrequency, Factor: 1}
	// 1 core at 3000 MHz hosts 3 vCPUs at 1000 MHz (the paper's §III-C
	// example: a 3 GHz core hosts 3 vCPUs guaranteed 1 GHz).
	n := &Node{Spec: NodeSpec{Name: "n", Cores: 1, MaxFreqMHz: 3000, MemoryGB: 64}}
	v := VMSpec{Template: "x", VCPUs: 1, FreqMHz: 1000, MemoryGB: 1}
	for i := 0; i < 3; i++ {
		if !n.Fits(v, p) {
			t.Fatalf("vCPU %d rejected", i)
		}
		n.Place(v, p)
	}
	if n.Fits(v, p) {
		t.Fatal("4th 1000 MHz vCPU accepted on a 3000 MHz core")
	}
	if u := n.Used(); u != (Load{VCPUs: 3, FreqMHz: 3000, MemoryGB: 3}) {
		t.Fatalf("usage accounting wrong: %+v", u)
	}
}

func TestVCPUFrequencyAboveNodeRejected(t *testing.T) {
	p := Policy{Mode: VirtualFrequency, Factor: 2}
	n := &Node{Spec: NodeSpec{Name: "n", Cores: 8, MaxFreqMHz: 2000, MemoryGB: 64}}
	v := VMSpec{Template: "x", VCPUs: 1, FreqMHz: 2500, MemoryGB: 1}
	if n.Fits(v, p) {
		t.Fatal("vCPU faster than the node accepted")
	}
}

func TestMemoryConstraint(t *testing.T) {
	p := Policy{Mode: VirtualFrequency, Factor: 1, Memory: true}
	n := &Node{Spec: NodeSpec{Name: "n", Cores: 64, MaxFreqMHz: 2400, MemoryGB: 16}}
	if !n.Fits(large(), p) { // 8 GB
		t.Fatal("first large rejected")
	}
	n.Place(large(), p)
	n.Place(large(), p) // 16 GB used
	if n.Fits(small(), p) {
		t.Fatal("memory overcommit accepted")
	}
	// Without memory enforcement it fits.
	pNoMem := Policy{Mode: VirtualFrequency, Factor: 1}
	if !n.Fits(small(), pNoMem) {
		t.Fatal("CPU-feasible VM rejected without memory enforcement")
	}
}

func TestCoreSplittingStricterThanEq7(t *testing.T) {
	node := NodeSpec{Name: "n", Cores: 2, MaxFreqMHz: 2400, MemoryGB: 64}
	eq7 := Policy{Mode: VirtualFrequency, Factor: 1}
	split := Policy{Mode: VirtualFrequency, Factor: 1, CoreSplitting: true}
	a := VMSpec{Template: "a", VCPUs: 1, FreqMHz: 1800, MemoryGB: 1}
	c := VMSpec{Template: "c", VCPUs: 1, FreqMHz: 700, MemoryGB: 1}
	for _, p := range []Policy{eq7, split} {
		n := &Node{Spec: node}
		n.Place(a, p)
		n.Place(a, p) // both cores now hold 1800
		got := n.Fits(c, p)
		want := !p.CoreSplitting // Eq. 7 has 1200 MHz slack; no core has 700
		if got != want {
			t.Fatalf("CoreSplitting=%v: Fits=%v, want %v", p.CoreSplitting, got, want)
		}
	}
}

func TestFirstFitOrder(t *testing.T) {
	nodes := []NodeSpec{chetemi(), chiclet()}
	p := Policy{Mode: CoreCount, Factor: 1}
	res, err := Place(FirstFit, nodes, repeatVMs(small(), 3), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes[0].VMs) != 3 || len(res.Nodes[1].VMs) != 0 {
		t.Fatal("FirstFit did not fill the first node")
	}
}

func TestBestFitPrefersFullest(t *testing.T) {
	nodes := []NodeSpec{
		{Name: "a", Cores: 10, MaxFreqMHz: 2400, MemoryGB: 64},
		{Name: "b", Cores: 10, MaxFreqMHz: 2400, MemoryGB: 64},
	}
	p := Policy{Mode: CoreCount, Factor: 1}
	// Pre-load node b by placing 4 vCPUs there via an initial run.
	vms := []VMSpec{
		{Name: "seed", Template: "l", VCPUs: 8, FreqMHz: 500, MemoryGB: 1},
		{Name: "next", Template: "s", VCPUs: 2, FreqMHz: 500, MemoryGB: 1},
	}
	res, err := Place(BestFit, nodes, vms, p)
	if err != nil {
		t.Fatal(err)
	}
	// Both land on node a: after the seed, a (2 free) is fuller than b.
	if len(res.Nodes[0].VMs) != 2 {
		t.Fatalf("BestFit spread VMs: %d on a", len(res.Nodes[0].VMs))
	}
}

func TestWorstFitSpreads(t *testing.T) {
	nodes := []NodeSpec{
		{Name: "a", Cores: 10, MaxFreqMHz: 2400, MemoryGB: 64},
		{Name: "b", Cores: 10, MaxFreqMHz: 2400, MemoryGB: 64},
	}
	p := Policy{Mode: CoreCount, Factor: 1}
	res, err := Place(WorstFit, nodes, repeatVMs(small(), 2), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes[0].VMs) != 1 || len(res.Nodes[1].VMs) != 1 {
		t.Fatal("WorstFit did not spread")
	}
}

func TestUnplacedReported(t *testing.T) {
	nodes := []NodeSpec{{Name: "tiny", Cores: 1, MaxFreqMHz: 2400, MemoryGB: 1}}
	p := Policy{Mode: CoreCount, Factor: 1}
	res, err := Place(BestFit, nodes, repeatVMs(large(), 2), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unplaced) != 2 || res.UsedNodes() != 0 {
		t.Fatalf("unplaced = %d, used = %d", len(res.Unplaced), res.UsedNodes())
	}
}

// TestChooseRule pins the one node-choice rule: FirstFit takes the first
// fitting node whatever its headroom, BestFit the least and WorstFit the
// most remaining capacity, ties to the lowest index, -1 when nothing fits,
// and an unknown algorithm is an error even with no node to look at.
func TestChooseRule(t *testing.T) {
	remaining := []float64{5, 2, 9, 2, 9}
	all := func(int) bool { return true }
	none := func(int) bool { return false }
	notFirst := func(i int) bool { return i != 0 }
	for _, tc := range []struct {
		alg  Algorithm
		fits func(int) bool
		n    int
		want int
	}{
		{FirstFit, all, 5, 0},
		{FirstFit, notFirst, 5, 1},
		{BestFit, all, 5, 1},  // 1 and 3 tie at 2
		{WorstFit, all, 5, 2}, // 2 and 4 tie at 9
		{WorstFit, notFirst, 2, 1},
		{FirstFit, none, 5, -1},
		{BestFit, none, 5, -1},
		{WorstFit, none, 5, -1},
		{BestFit, all, 0, -1},
	} {
		got, err := Choose(tc.alg, tc.n, tc.fits, func(i int) float64 { return remaining[i] })
		if err != nil || got != tc.want {
			t.Errorf("Choose(%v, n=%d) = %d, %v; want %d", tc.alg, tc.n, got, err, tc.want)
		}
	}
	for _, n := range []int{0, 5} {
		asked := false
		fits := func(int) bool { asked = true; return true }
		if got, err := Choose(Algorithm(9), n, fits, nil); err == nil || got != -1 || asked {
			t.Errorf("Choose(Algorithm(9), n=%d) = %d, %v, consulted nodes: %v; want -1, an error, none", n, got, err, asked)
		}
	}
}

// An unknown algorithm fails Place up front, also when no node would fit
// (it used to return every VM unplaced then).
func TestPlaceRejectsUnknownAlgorithm(t *testing.T) {
	tiny := []NodeSpec{{Name: "tiny", Cores: 1, MaxFreqMHz: 2400, MemoryGB: 1}}
	if _, err := Place(Algorithm(9), tiny, repeatVMs(large(), 2), Policy{Mode: CoreCount, Factor: 1}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestSortDecreasing(t *testing.T) {
	vms := []VMSpec{small(), large(), medium()}
	SortDecreasing(vms)
	if vms[0].Template != "large" || vms[1].Template != "medium" || vms[2].Template != "small" {
		t.Fatalf("order = %s %s %s", vms[0].Template, vms[1].Template, vms[2].Template)
	}
}

// paperCluster builds the §IV-C scenario: 12 chetemi + 10 chiclet, 250
// small + 50 medium + 100 large.
func paperCluster() ([]NodeSpec, []VMSpec) {
	var nodes []NodeSpec
	for i := 0; i < 12; i++ {
		nodes = append(nodes, chetemi())
	}
	for i := 0; i < 10; i++ {
		nodes = append(nodes, chiclet())
	}
	var vms []VMSpec
	vms = append(vms, repeatVMs(small(), 250)...)
	vms = append(vms, repeatVMs(medium(), 50)...)
	vms = append(vms, repeatVMs(large(), 100)...)
	return nodes, vms
}

// The paper's placement claims, §IV-C: the classic constraint needs all 22
// nodes; Eq. 7 packs the same workload on roughly a third fewer nodes.
func TestPaperPlacementScenario(t *testing.T) {
	nodes, vms := paperCluster()

	classic, err := Place(BestFit, nodes, vms, Policy{Mode: CoreCount, Factor: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(classic.Unplaced) != 0 {
		t.Fatalf("classic: %d VMs unplaced", len(classic.Unplaced))
	}
	if got := classic.UsedNodes(); got != 22 {
		t.Fatalf("classic constraint used %d nodes, want 22", got)
	}

	freq, err := Place(BestFit, nodes, vms, Policy{Mode: VirtualFrequency, Factor: 1, Memory: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(freq.Unplaced) != 0 {
		t.Fatalf("eq7: %d VMs unplaced", len(freq.Unplaced))
	}
	used := freq.UsedNodes()
	if used < 10 || used > 16 {
		t.Fatalf("Eq. 7 used %d nodes, want ~15 (paper) — between 10 and 16", used)
	}
	// Eq. 7 structurally bounds a chiclet to 21 large VMs
	// (⌊153600/7200⌋), the paper's anti-hotspot argument.
	if got := freq.MaxPerNode("chiclet", "large"); got > 21 {
		t.Fatalf("Eq. 7 chiclet hosts %d large VMs, structural max 21", got)
	}
}

// The consolidation-factor comparison: ×1.8 core-count reaches a similar
// node count but overloads chiclets with 28 large VMs (vs 21 under
// Eq. 7) — the paper's hotspot observation.
func TestPaperConsolidationFactorHotspots(t *testing.T) {
	nodes, vms := paperCluster()
	res, err := Place(BestFit, nodes, vms, Policy{Mode: CoreCount, Factor: 1.8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unplaced) != 0 {
		t.Fatalf("%d VMs unplaced", len(res.Unplaced))
	}
	if got := res.UsedNodes(); got != 15 {
		t.Fatalf("consolidation ×1.8 used %d nodes, want 15 (paper)", got)
	}
	if got := res.MaxPerNode("chiclet", "large"); got != 28 {
		t.Fatalf("max large per chiclet = %d, want 28 (paper)", got)
	}
	if got := res.MaxPerNode("chetemi", "small"); got != 36 {
		t.Fatalf("max small per chetemi = %d, want 36 (paper)", got)
	}
}

func TestEnergyAccounting(t *testing.T) {
	nodes := []NodeSpec{chetemi(), chetemi()}
	p := Policy{Mode: CoreCount, Factor: 1}
	res, err := Place(BestFit, nodes, repeatVMs(small(), 20), p) // fills node 1
	if err != nil {
		t.Fatal(err)
	}
	if res.UsedNodes() != 1 {
		t.Fatalf("used %d nodes", res.UsedNodes())
	}
	if got := res.IdlePowerSavingsWatts(); got != 97 {
		t.Fatalf("idle savings = %g W, want 97", got)
	}
	active := res.ActivePowerWatts()
	if active != 220 { // full load
		t.Fatalf("active power = %g W, want 220", active)
	}
}

// Property: Place never oversubscribes a node under either constraint and
// never drops a VM silently (placed + unplaced = input).
func TestQuickPlacementInvariants(t *testing.T) {
	f := func(seed uint16, mode bool) bool {
		// Deterministic pseudo-random workload from the seed.
		n := int(seed%40) + 1
		var vms []VMSpec
		for i := 0; i < n; i++ {
			vms = append(vms, VMSpec{
				Name:     fmt.Sprint(i),
				Template: "t",
				VCPUs:    int(seed>>((i%3)*2))%4 + 1,
				FreqMHz:  int64(300 + (int(seed)*i)%2100),
				MemoryGB: i%8 + 1,
			})
		}
		nodes := []NodeSpec{chetemi(), chiclet(), chetemi()}
		p := Policy{Mode: CoreCount, Factor: 1, Memory: true}
		if mode {
			p.Mode = VirtualFrequency
		}
		res, err := Place(BestFit, nodes, vms, p)
		if err != nil {
			return false
		}
		placed := 0
		for _, node := range res.Nodes {
			placed += len(node.VMs)
			switch p.Mode {
			case CoreCount:
				if node.Used().VCPUs > node.Spec.Cores {
					return false
				}
			case VirtualFrequency:
				if node.Used().FreqMHz > int64(node.Spec.Cores)*node.Spec.MaxFreqMHz {
					return false
				}
			}
			if node.Used().MemoryGB > node.Spec.MemoryGB {
				return false
			}
		}
		return placed+len(res.Unplaced) == len(vms)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStringers(t *testing.T) {
	if CoreCount.String() != "core-count" || VirtualFrequency.String() != "virtual-frequency" {
		t.Fatal("constraint names wrong")
	}
	if FirstFit.String() != "first-fit" || BestFit.String() != "best-fit" || WorstFit.String() != "worst-fit" {
		t.Fatal("algorithm names wrong")
	}
	if ConstraintMode(9).String() == "" || Algorithm(9).String() == "" {
		t.Fatal("unknown values render empty")
	}
}
