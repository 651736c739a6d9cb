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
	// Overloaded detection in core-count mode.
	if err := c.provisionOn(0, "forced", vm.Small(), nil); err != nil {
		t.Fatal(err)
	}
	if got := c.Overloaded(); len(got) != 1 {
		t.Fatalf("Overloaded = %v", got)
	}
}

func TestMemoryOverloadDetected(t *testing.T) {
	spec := host.Chetemi()
	spec.MemoryGB = 4
	c, err := New([]host.Spec{spec}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.provisionOn(0, "a", vm.Large(), nil); err != nil { // 8 GB > 4 GB
		t.Fatal(err)
	}
	if got := c.Overloaded(); len(got) != 1 {
		t.Fatalf("memory overload not detected: %v", got)
	}
}
