package cluster

import (
	"strings"
	"testing"

	"vfreq/internal/metrics"
)

// TestClusterArmMetrics pins the cluster → registry wiring: the
// per-node step histogram sees one observation per node per Step, the
// cluster histogram one per Step, and the gauges track Health.
func TestClusterArmMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	c := buildScaleCluster(t, 3, 2, 1, 0)
	defer c.Close()
	c.ArmMetrics(reg)
	const steps = 4
	for i := 0; i < steps; i++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.met.stepUs.Count(); got != steps {
		t.Fatalf("cluster step histogram count = %d, want %d", got, steps)
	}
	if got := c.met.nodeStepUs.Count(); got != int64(steps*len(c.nodes)) {
		t.Fatalf("node step histogram count = %d, want %d", got, steps*len(c.nodes))
	}
	if got := c.met.nodes.Value(); got != 3 {
		t.Fatalf("nodes gauge = %d, want 3", got)
	}
	if got := c.met.usedNodes.Value(); got != 3 {
		t.Fatalf("used-nodes gauge = %d, want 3", got)
	}
	h := c.Health()
	if got := c.met.vcpus.Value(); got != int64(h.VCPUs) {
		t.Fatalf("vcpus gauge = %d, want %d", got, h.VCPUs)
	}

	// Arming the cluster arms every node controller on the same
	// registry, so the fleet-aggregated per-stage series exist too.
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE vfreq_cluster_node_step_us histogram",
		"vfreq_cluster_steps_total 4",
		`vfreq_step_stage_us_count{stage="monitor"} 12`, // 3 nodes × 4 steps
		"vfreq_cluster_failed_nodes 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestClusterArmMetricsConcurrent runs the armed cluster on the worker
// pool: the shared node-step histogram must count every node exactly
// once per Step regardless of scheduling. (The -race CI step runs this
// too, exercising the atomic-only recording contract.)
func TestClusterArmMetricsConcurrent(t *testing.T) {
	reg := metrics.NewRegistry()
	c := buildScaleCluster(t, 4, 2, 4, 0)
	defer c.Close()
	c.ArmMetrics(reg)
	const steps = 6
	for i := 0; i < steps; i++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.met.nodeStepUs.Count(); got != int64(steps*len(c.nodes)) {
		t.Fatalf("node step histogram count = %d, want %d", got, steps*len(c.nodes))
	}
	if got := c.met.steps.Value(); got != steps {
		t.Fatalf("steps counter = %d, want %d", got, steps)
	}
}
