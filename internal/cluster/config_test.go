package cluster

import (
	"fmt"
	"strings"
	"testing"

	"vfreq/internal/host"
	"vfreq/internal/placement"
	"vfreq/internal/vm"
)

func TestWithDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Controller.PeriodUs != 1_000_000 {
		t.Fatalf("default controller period = %d", cfg.Controller.PeriodUs)
	}
	if cfg.Policy.Mode != placement.VirtualFrequency || !cfg.Policy.Memory {
		t.Fatalf("default policy = %+v", cfg.Policy)
	}
	// Explicit values survive.
	custom := Config{Policy: placement.Policy{Mode: placement.CoreCount, Factor: 2}}.withDefaults()
	if custom.Policy.Mode != placement.CoreCount || custom.Policy.Factor != 2 {
		t.Fatalf("custom policy lost: %+v", custom.Policy)
	}
}

func TestInvalidPolicyRejected(t *testing.T) {
	bad := Config{Policy: placement.Policy{Mode: placement.CoreCount, Factor: 1, CoreSplitting: true}}
	if _, err := New([]host.Spec{host.Chetemi()}, bad); err == nil {
		t.Fatal("invalid policy accepted")
	}
	// Valid for the offline placement.Place, but online admission is plain
	// Eq. 7 and would silently ignore it.
	split := Config{Policy: placement.Policy{Mode: placement.VirtualFrequency, Factor: 1, CoreSplitting: true}}
	if _, err := New([]host.Spec{host.Chetemi()}, split); err == nil || !strings.Contains(err.Error(), "CoreSplitting") {
		t.Fatalf("CoreSplitting policy: err = %v, want one naming the field", err)
	}
}

func TestWorstFitSpreadsAcrossNodes(t *testing.T) {
	spec := host.Chetemi()
	spec.Cores = 8
	c, err := New([]host.Spec{spec, spec}, Config{Algorithm: placement.WorstFit})
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Deploy("a", vm.Small(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Deploy("b", vm.Small(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatalf("WorstFit stacked both VMs on node %d", a)
	}
}

func TestFirstFitFillsInOrder(t *testing.T) {
	spec := host.Chetemi()
	spec.Cores = 8
	c, err := New([]host.Spec{spec, spec}, Config{Algorithm: placement.FirstFit})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		idx, err := c.Deploy(fmt.Sprintf("v%d", i), vm.Small(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if idx != 0 {
			t.Fatalf("FirstFit chose node %d", idx)
		}
	}
}

func TestCoreCountAdmission(t *testing.T) {
	spec := host.Chetemi()
	spec.Cores = 4
	c, err := New([]host.Spec{spec}, Config{
		Policy: placement.Policy{Mode: placement.CoreCount, Factor: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy("a", vm.Large(), nil); err != nil { // 4 vCPUs
		t.Fatal(err)
	}
	if _, err := c.Deploy("b", vm.Small(), nil); err == nil {
		t.Fatal("vCPU-count overcommit accepted")
	}
}

// TestAdmissionOneRule pins that the offline packer and online admission
// decide by one rule: over every Mode × Factor × Memory policy, with
// templates at, one MHz (or one vCPU, one GB) under and over the
// boundary, at, one under and one over F_MAX, joining an empty node,
// joining a filled one and replacing a VM (the resize form),
// placement.Node.Fits, cluster.fits / fitsResized and Policy.Admits on
// the summed loads all equal the constraint written out literally below,
// and Policy.Attainable the F ≤ F_MAX half of it.
func TestAdmissionOneRule(t *testing.T) {
	spec := host.Chetemi() // F_MAX 2400 MHz
	spec.Cores, spec.MemoryGB = 5, 16
	pspec := placement.NodeSpec{Name: spec.Name, Cores: spec.Cores, MaxFreqMHz: spec.MaxMHz, MemoryGB: spec.MemoryGB}
	// x is the VM the resize form replaces; fill + x leave exactly 1 vCPU
	// (CoreCount) or 1500 MHz (VirtualFrequency) and 6 GB, fill alone
	// 2 vCPUs or 2000 MHz and 8 GB.
	x := vm.Template{Name: "x", VCPUs: 1, FreqMHz: 500, MemoryGB: 2}
	fills := map[placement.Policy]vm.Template{
		{Mode: placement.CoreCount, Factor: 1}:          {Name: "fill", VCPUs: 3, FreqMHz: 500, MemoryGB: 8},
		{Mode: placement.CoreCount, Factor: 1.8}:        {Name: "fill", VCPUs: 7, FreqMHz: 500, MemoryGB: 8},
		{Mode: placement.VirtualFrequency, Factor: 1}:   {Name: "fill", VCPUs: 5, FreqMHz: 2000, MemoryGB: 8},
		{Mode: placement.VirtualFrequency, Factor: 1.8}: {Name: "fill", VCPUs: 10, FreqMHz: 1960, MemoryGB: 8},
	}
	vmSpec := func(tpl vm.Template) placement.VMSpec {
		return placement.VMSpec{Name: tpl.Name, VCPUs: tpl.VCPUs, FreqMHz: tpl.FreqMHz, MemoryGB: tpl.MemoryGB}
	}
	for base, fill := range fills {
		for _, memory := range []bool{false, true} {
			p := base
			p.Memory = memory
			// The constraint, literally: used is what the node carries
			// besides the candidate.
			constraint := func(used placement.Load, tpl vm.Template) bool {
				if memory && used.MemoryGB+tpl.MemoryGB > spec.MemoryGB {
					return false
				}
				if p.Mode == placement.CoreCount {
					return float64(used.VCPUs+tpl.VCPUs) <= float64(spec.Cores)*p.Factor
				}
				return float64(used.FreqMHz+int64(tpl.VCPUs)*tpl.FreqMHz) <= float64(int64(spec.Cores)*spec.MaxMHz)*p.Factor
			}
			empty, err := New([]host.Spec{spec}, Config{Policy: p})
			if err != nil {
				t.Fatal(err)
			}
			filled, err := New([]host.Spec{spec}, Config{Policy: p})
			if err != nil {
				t.Fatal(err)
			}
			// The manager provisions without admission, as Place does.
			pnFill, pnFillX := &placement.Node{Spec: pspec}, &placement.Node{Spec: pspec}
			for _, tpl := range []vm.Template{fill, x} {
				if _, err := filled.nodes[0].Manager.Provision(tpl.Name, tpl, nil); err != nil {
					t.Fatal(err)
				}
				pnFillX.Place(vmSpec(tpl), p)
			}
			pnFill.Place(vmSpec(fill), p)
			if got, want := used(filled.nodes[0]), pnFillX.Used(); got != want {
				t.Fatalf("%+v: cluster load %+v, placement %+v", p, got, want)
			}
			for _, vcpus := range []int{1, 2, 3} {
				for _, freq := range []int64{1499, 1500, 1501, 1999, 2000, 2001, spec.MaxMHz - 1, spec.MaxMHz, spec.MaxMHz + 1} {
					for _, mem := range []int{6, 7, 8, 9} {
						tpl := vm.Template{Name: "cand", VCPUs: vcpus, FreqMHz: freq, MemoryGB: mem}
						cand := vmSpec(tpl)
						attainable := p.Mode != placement.VirtualFrequency || freq <= spec.MaxMHz
						if got := p.Attainable(freq, spec.MaxMHz); got != attainable {
							t.Errorf("%+v F %d: Policy.Attainable = %v, want %v", p, freq, got, attainable)
						}
						for _, form := range []struct {
							name    string
							others  placement.Load // the node's load besides the candidate
							packer  bool
							cluster bool
						}{
							{"join empty", placement.Load{}, (&placement.Node{Spec: pspec}).Fits(cand, p), empty.fits(empty.nodes[0], tpl)},
							{"join filled", pnFillX.Used(), pnFillX.Fits(cand, p), filled.fits(filled.nodes[0], tpl)},
							{"replace x", pnFill.Used(), pnFill.Fits(cand, p), filled.fitsResized(filled.nodes[0], x, tpl)},
						} {
							want := constraint(form.others, tpl)
							if got := p.Admits(pspec.Capacity(), form.others.Add(cand.Load())); got != want {
								t.Errorf("%+v %s %+v: Policy.Admits = %v, want %v", p, form.name, tpl, got, want)
							}
							want = want && attainable
							if form.packer != want || form.cluster != want {
								t.Errorf("%+v %s %+v: placement.Node.Fits = %v, cluster = %v, want %v",
									p, form.name, tpl, form.packer, form.cluster, want)
							}
						}
					}
				}
			}
			empty.Close()
			filled.Close()
		}
	}
}
