package core

import "fmt"

// maxFaultsPerStep bounds the fault log of one StepReport so a host with
// thousands of failing vCPUs cannot make a report unboundedly large; the
// overflow is counted in FaultsDropped.
const maxFaultsPerStep = 64

// Fault records one failed host interaction during a Step. Faults are
// per-vCPU (or per-VM for template and registration problems) and do not
// abort the Step: the affected vCPU degrades to its last-known-good cap
// while every other vCPU keeps being controlled.
type Fault struct {
	// VM is the affected VM name.
	VM string
	// VCPU is the affected vCPU index, or -1 for a VM-level fault.
	VCPU int
	// Stage names the controller stage: "sync", "monitor", "apply" or
	// "breaker".
	Stage string
	// Op names what failed: one of the five host calls (the hostOp table
	// in controller.go: "usage", "tid", "lastcpu", "freq", "setmax"),
	// "template" (a rejected VM template), "open" (a circuit breaker
	// tripping), "panic" or "save" (a checkpoint).
	Op string
	// Err is the underlying host error.
	Err error
}

// Error renders the fault as one line.
func (f Fault) Error() string {
	if f.VCPU < 0 {
		return fmt.Sprintf("%s/%s %s: %v", f.Stage, f.Op, f.VM, f.Err)
	}
	return fmt.Sprintf("%s/%s %s/vcpu%d: %v", f.Stage, f.Op, f.VM, f.VCPU, f.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (f Fault) Unwrap() error { return f.Err }

// StepReport describes what one control iteration actually did: how many
// vCPUs were controlled with fresh measurements, how many degraded to
// their last-known-good cap, which VMs churned or were live-reconfigured,
// and the per-stage timings. A Step only returns an error when the whole
// host is unreachable (VM enumeration fails); every narrower failure is
// recorded here instead.
type StepReport struct {
	// Step is the iteration number this report describes (1-based).
	Step int64
	// VMs is the number of VMs tracked after reconciliation.
	VMs int
	// VCPUs is the total number of controlled vCPUs.
	VCPUs int
	// DegradedVCPUs counts vCPUs whose monitor or apply stage failed
	// this Step; their caps are held at the last-known-good value.
	DegradedVCPUs int
	// HealthyVCPUs counts vCPUs fully monitored and (when control is
	// enabled) successfully applied this Step.
	HealthyVCPUs int
	// Retries counts host operations that succeeded only after an
	// in-step retry (Config.HostRetries).
	Retries int
	// Recovered counts vCPUs whose FailedSteps counter was reset this
	// Step after Config.RecoverySteps consecutive clean Steps.
	Recovered int
	// OpenVMs counts VMs quarantined behind an open circuit breaker at
	// the end of this Step (their vCPUs are all in DegradedVCPUs).
	OpenVMs int
	// HalfOpenVMs counts VMs in the probing half-open breaker state.
	HalfOpenVMs int
	// BreakerTrips counts breakers that opened (or re-opened from a
	// failed half-open probe) during this Step; each trip is also
	// recorded as a "breaker/open" fault.
	BreakerTrips int
	// Panicked reports that a stage panicked this Step. The watchdog
	// converted the panic into a degraded step: every tracked vCPU was
	// marked degraded (its state may be mid-stage inconsistent) and the
	// panic is recorded as a "step/panic" fault instead of crashing the
	// control loop.
	Panicked bool
	// Overrun reports that the Step's wall-clock time crossed its
	// deadline, half of Config.PeriodUs.
	Overrun bool
	// OverrunStage names the first stage after which the deadline was
	// found exceeded ("sync", "monitor", "estimate", "enforce",
	// "auction", "distribute" or "apply").
	OverrunStage string
	// SkippedPeriods counts whole control periods that elapsed while
	// this Step ran: a caller ticking every PeriodUs missed this many
	// ticks. 0 for a Step that fits in its period.
	SkippedPeriods int64
	// Checkpointed reports that this Step persisted a checkpoint to the
	// attached store.
	Checkpointed bool
	// Faults lists the recorded failures, at most maxFaultsPerStep.
	Faults []Fault
	// FaultsDropped counts faults beyond the Faults capacity.
	FaultsDropped int
	// Added, Removed and Reconfigured list the VMs that appeared,
	// departed, or changed template (frequency or vCPU count) during
	// this Step's reconciliation.
	Added        []string
	Removed      []string
	Reconfigured []string
	// Timings are the per-stage wall-clock costs of this Step.
	Timings StageTimings
}

// record appends a fault, bounding the log size.
func (r *StepReport) record(f Fault) {
	if len(r.Faults) >= maxFaultsPerStep {
		r.FaultsDropped++
		return
	}
	r.Faults = append(r.Faults, f)
}

// FaultCount returns the total number of faults, including dropped ones.
func (r StepReport) FaultCount() int { return len(r.Faults) + r.FaultsDropped }

// Degraded reports whether any vCPU ran on stale data this Step.
func (r StepReport) Degraded() bool { return r.DegradedVCPUs > 0 || r.FaultCount() > 0 }

// String summarises the report in one line.
func (r StepReport) String() string {
	s := fmt.Sprintf("step %d: %d VMs, %d/%d vCPUs healthy, %d degraded, %d faults (+%d added, -%d removed, ~%d reconfigured)",
		r.Step, r.VMs, r.HealthyVCPUs, r.VCPUs, r.DegradedVCPUs, r.FaultCount(),
		len(r.Added), len(r.Removed), len(r.Reconfigured))
	if r.Retries > 0 {
		s += fmt.Sprintf(" [%d retries]", r.Retries)
	}
	if r.Recovered > 0 {
		s += fmt.Sprintf(" [%d vCPUs recovered]", r.Recovered)
	}
	if r.OpenVMs > 0 || r.HalfOpenVMs > 0 || r.BreakerTrips > 0 {
		s += fmt.Sprintf(" [breakers: %d open, %d half-open, %d tripped]",
			r.OpenVMs, r.HalfOpenVMs, r.BreakerTrips)
	}
	if r.Panicked {
		s += " [panicked]"
	}
	if r.Overrun {
		s += fmt.Sprintf(" [overrun after %s, %d periods skipped]", r.OverrunStage, r.SkippedPeriods)
	}
	return s
}
