package cluster

import (
	"vfreq/internal/metrics"
)

// clusterMetrics holds the cluster's pre-interned instruments. As with
// the controller's set, every pointer is resolved at arm time and the
// record paths are atomic-only: stepNode runs concurrently on the
// worker pool, so the per-node latency histogram is shared and relies
// on Observe being race-safe.
type clusterMetrics struct {
	stepUs     *metrics.Histogram // whole-cluster Step wall clock
	nodeStepUs *metrics.Histogram // one observation per node per Step

	steps     *metrics.Counter
	evacuated *metrics.Counter
	stranded  *metrics.Counter

	// Migration outcome counters (see MigrationStats), incremented
	// inline by Migrate — off the Step hot path, atomic and
	// allocation-free like every other record path.
	migAttempted    *metrics.Counter
	migCommitted    *metrics.Counter
	migStateCarried *metrics.Counter

	nodes         *metrics.Gauge
	usedNodes     *metrics.Gauge
	failedNodes   *metrics.Gauge
	degradedNodes *metrics.Gauge
	vcpus         *metrics.Gauge
	degraded      *metrics.Gauge
	openVMs       *metrics.Gauge
	halfOpenVMs   *metrics.Gauge
}

// ArmMetrics registers the cluster's instruments in reg and starts
// recording every subsequent Step into them. It also arms every node's
// controller on the same registry, so the per-stage latency histograms
// and breaker/fault counters aggregate across the fleet (the series
// are shared — controller recording is atomic-only, which makes the
// cross-node aggregation race-safe). A nil reg disarms the cluster's
// own instruments; node controllers stay on whatever they were armed
// with last.
func (c *Cluster) ArmMetrics(reg *metrics.Registry) {
	if reg == nil {
		c.met = nil
		return
	}
	m := &clusterMetrics{}
	m.stepUs = reg.Histogram("vfreq_cluster_step_us",
		"Whole-cluster Step wall-clock latency, microseconds.",
		metrics.DefaultLatencyBucketsUs)
	m.nodeStepUs = reg.Histogram("vfreq_cluster_node_step_us",
		"Per-node step latency (machine advance + controller Step), microseconds.",
		metrics.DefaultLatencyBucketsUs)
	m.steps = reg.Counter("vfreq_cluster_steps_total", "Completed cluster Steps.")
	m.evacuated = reg.Counter("vfreq_cluster_evacuated_vms_total", "VMs moved off failed nodes.")
	m.stranded = reg.Counter("vfreq_cluster_stranded_vm_steps_total", "VM-steps stuck on failed nodes with no feasible target.")
	m.migAttempted = reg.Counter("vfreq_cluster_migration_attempted_total",
		"Migrations attempted (validated non-no-op Migrate calls).")
	m.migCommitted = reg.Counter("vfreq_cluster_migration_committed_total",
		"Migrations committed (the VM runs on the target).")
	m.migStateCarried = reg.Counter("vfreq_cluster_migration_state_carried_total",
		"Committed migrations whose controller state was adopted on the target.")
	m.nodes = reg.Gauge("vfreq_cluster_nodes", "Managed nodes.")
	m.usedNodes = reg.Gauge("vfreq_cluster_used_nodes", "Nodes hosting at least one VM.")
	m.failedNodes = reg.Gauge("vfreq_cluster_failed_nodes", "Nodes unreachable or marked failed.")
	m.degradedNodes = reg.Gauge("vfreq_cluster_degraded_nodes", "Nodes reporting any degradation.")
	m.vcpus = reg.Gauge("vfreq_cluster_vcpus", "Controlled vCPUs across the cluster.")
	m.degraded = reg.Gauge("vfreq_cluster_degraded_vcpus", "Degraded vCPUs across the cluster.")
	m.openVMs = reg.Gauge("vfreq_cluster_open_vms", "VMs behind an open breaker across the cluster.")
	m.halfOpenVMs = reg.Gauge("vfreq_cluster_halfopen_vms", "VMs in the half-open breaker state across the cluster.")
	for _, n := range c.nodes {
		n.Ctrl.ArmMetrics(reg)
	}
	c.met = m
}

// recordStep folds one finished cluster Step into the instruments;
// stepUs is the Step's wall-clock microseconds. Allocation-free.
func (c *Cluster) recordStep(stepUs int64) {
	m := c.met
	h := c.Health()
	m.stepUs.Observe(stepUs)
	m.steps.Inc()
	m.evacuated.Add(int64(h.EvacuatedVMs))
	m.stranded.Add(int64(h.StrandedVMs))
	m.nodes.Set(int64(len(c.nodes)))
	m.usedNodes.Set(int64(c.UsedNodes()))
	m.failedNodes.Set(int64(h.FailedNodes))
	m.degradedNodes.Set(int64(h.DegradedNodes))
	m.vcpus.Set(int64(h.VCPUs))
	m.degraded.Set(int64(h.DegradedVCPUs))
	m.openVMs.Set(int64(h.OpenVMs))
	m.halfOpenVMs.Set(int64(h.HalfOpenVMs))
}
