package core

import (
	"vfreq/internal/metrics"
)

// stageNames orders the per-stage latency series; index matches the
// stageDurations layout below.
var stageNames = [7]string{
	"monitor", "estimate", "enforce", "auction", "distribute", "apply", "total",
}

// ctrlMetrics holds the controller's pre-interned instruments. Every
// pointer is resolved once at arm time — recording is a handful of
// atomic adds per Step, nothing else, which is what keeps
// TestStepZeroAlloc green with the registry armed.
type ctrlMetrics struct {
	stageUs [7]*metrics.Histogram

	steps          *metrics.Counter
	retries        *metrics.Counter
	faults         *metrics.Counter
	degradedSteps  *metrics.Counter // vCPU-steps spent degraded
	recovered      *metrics.Counter
	breakerTrips   *metrics.Counter
	overruns       *metrics.Counter
	panics         *metrics.Counter
	skippedPeriods *metrics.Counter

	vms         *metrics.Gauge
	vcpus       *metrics.Gauge
	degraded    *metrics.Gauge
	openVMs     *metrics.Gauge
	halfOpenVMs *metrics.Gauge
}

// ArmMetrics registers the controller's instruments in reg and starts
// recording every subsequent Step into them. Arm once, before the
// control loop starts; arming mid-run is safe but the counters then
// only cover later Steps. A nil reg disarms.
func (c *Controller) ArmMetrics(reg *metrics.Registry) {
	if reg == nil {
		c.met = nil
		return
	}
	m := &ctrlMetrics{}
	for i, name := range stageNames {
		m.stageUs[i] = reg.Histogram("vfreq_step_stage_us",
			"Per-stage wall-clock latency of the control loop, microseconds.",
			metrics.DefaultLatencyBucketsUs, metrics.Label{Key: "stage", Value: name})
	}
	m.steps = reg.Counter("vfreq_steps_total", "Completed control iterations.")
	m.retries = reg.Counter("vfreq_retries_total", "Host operations that needed an in-step retry.")
	m.faults = reg.Counter("vfreq_faults_total", "Recorded per-vCPU/per-VM faults (including dropped).")
	m.degradedSteps = reg.Counter("vfreq_degraded_vcpu_steps_total", "vCPU-steps spent degraded on last-known-good caps.")
	m.recovered = reg.Counter("vfreq_recovered_vcpus_total", "vCPUs whose failure counter reset after clean steps.")
	m.breakerTrips = reg.Counter("vfreq_breaker_trips_total", "Circuit breakers that opened or re-opened.")
	m.overruns = reg.Counter("vfreq_step_overruns_total", "Steps whose wall-clock time crossed the deadline budget.")
	m.panics = reg.Counter("vfreq_step_panics_total", "Stage panics recovered into degraded steps.")
	m.skippedPeriods = reg.Counter("vfreq_skipped_periods_total", "Whole control periods missed by overrunning steps.")
	m.vms = reg.Gauge("vfreq_vms", "VMs tracked after reconciliation.")
	m.vcpus = reg.Gauge("vfreq_vcpus", "Controlled vCPUs.")
	m.degraded = reg.Gauge("vfreq_degraded_vcpus", "vCPUs currently degraded.")
	m.openVMs = reg.Gauge("vfreq_open_vms", "VMs quarantined behind an open breaker.")
	m.halfOpenVMs = reg.Gauge("vfreq_halfopen_vms", "VMs in the probing half-open breaker state.")
	c.met = m
}

// recordStep folds one finished StepReport into the instruments.
// Called at the end of every Step while armed; must stay free of
// allocations and locks.
func (m *ctrlMetrics) recordStep(rep *StepReport) {
	m.stageUs[0].Observe(rep.Timings.Monitor.Microseconds())
	m.stageUs[1].Observe(rep.Timings.Estimate.Microseconds())
	m.stageUs[2].Observe(rep.Timings.Enforce.Microseconds())
	m.stageUs[3].Observe(rep.Timings.Auction.Microseconds())
	m.stageUs[4].Observe(rep.Timings.Distribute.Microseconds())
	m.stageUs[5].Observe(rep.Timings.Apply.Microseconds())
	m.stageUs[6].Observe(rep.Timings.Total.Microseconds())

	m.steps.Inc()
	m.retries.Add(int64(rep.Retries))
	m.faults.Add(int64(rep.FaultCount()))
	m.degradedSteps.Add(int64(rep.DegradedVCPUs))
	m.recovered.Add(int64(rep.Recovered))
	m.breakerTrips.Add(int64(rep.BreakerTrips))
	if rep.Overrun {
		m.overruns.Inc()
	}
	if rep.Panicked {
		m.panics.Inc()
	}
	m.skippedPeriods.Add(rep.SkippedPeriods)

	m.vms.Set(int64(rep.VMs))
	m.vcpus.Set(int64(rep.VCPUs))
	m.degraded.Set(int64(rep.DegradedVCPUs))
	m.openVMs.Set(int64(rep.OpenVMs))
	m.halfOpenVMs.Set(int64(rep.HalfOpenVMs))
}
