package core

import (
	"strings"
	"testing"

	"vfreq/internal/metrics"
)

// TestArmMetricsRecordsSteps pins the controller → registry wiring:
// after N armed steps the step counter, the per-stage histograms and
// the population gauges must all reflect the run.
func TestArmMetricsRecordsSteps(t *testing.T) {
	reg := metrics.NewRegistry()
	c, err := New(newBenchHost(3, 2), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c.ArmMetrics(reg)
	const steps = 5
	for i := 0; i < steps; i++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.met.steps.Value(); got != steps {
		t.Fatalf("steps counter = %d, want %d", got, steps)
	}
	for i, name := range stageNames {
		if got := c.met.stageUs[i].Count(); got != steps {
			t.Fatalf("stage %s histogram count = %d, want %d", name, got, steps)
		}
	}
	if got := c.met.vms.Value(); got != 3 {
		t.Fatalf("vms gauge = %d, want 3", got)
	}
	if got := c.met.vcpus.Value(); got != 6 {
		t.Fatalf("vcpus gauge = %d, want 6", got)
	}

	// The exposition must carry the per-stage series the acceptance
	// criteria name.
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		`vfreq_step_stage_us_count{stage="monitor"} 5`,
		`vfreq_step_stage_us_count{stage="apply"} 5`,
		`vfreq_steps_total 5`,
		`# TYPE vfreq_step_stage_us histogram`,
		`vfreq_breaker_trips_total 0`,
		`vfreq_degraded_vcpus 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestArmMetricsCountsFaults drives a degraded step through an armed
// controller and checks the fault/degradation series move.
func TestArmMetricsCountsFaults(t *testing.T) {
	reg := metrics.NewRegistry()
	h := newBenchHost(2, 2)
	cfg := DefaultConfig()
	cfg.BreakerThreshold = 0
	c, err := New(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.ArmMetrics(reg)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	// Shrink the usage table so vCPU reads of the second VM panic-free
	// fail: simplest is to point the VM map at a missing base. Instead,
	// force degradation via a panic-free wrapper: drop one VM's usage
	// entries by renaming it in the host's base map.
	h.base["b01"] = len(h.usage) + 100 // out-of-range ⇒ panic on read
	defer func() { recover() }()       // the controller swallows it; nothing to do
	_ = c.Step()
	if got := c.met.panics.Value(); got != 1 {
		t.Fatalf("panics counter = %d, want 1 (the out-of-range read panics the monitor stage)", got)
	}
	if got := c.met.degradedSteps.Value(); got == 0 {
		t.Fatal("degraded vCPU-steps counter did not move after a panicked step")
	}
}
