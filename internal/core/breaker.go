package core

import (
	"errors"
	"fmt"
	"time"
)

// ErrCallBudget marks a host call that succeeded or failed only after
// exceeding Config.CallBudgetUs. It is preallocated so the hot path can
// degrade a slow vCPU without heap-allocating an error, and it is never
// retried: a call site that is slow once is slow again, and retrying it
// is how a stalling cgroupfs drags a Step past its watchdog.
var ErrCallBudget = errors.New("core: host call exceeded its budget")

// callStart begins timing one host call against Config.CallBudgetUs;
// the zero time means the budget is disabled.
func (c *Controller) callStart() time.Time {
	if c.cfg.CallBudgetUs <= 0 {
		return time.Time{}
	}
	return time.Now()
}

// budgeted converts a success of the call timed by t0 into ErrCallBudget
// when the call took longer than Config.CallBudgetUs (a zero t0 means the
// budget is disabled).
func (c *Controller) budgeted(t0 time.Time, err error) error {
	if err == nil && !t0.IsZero() && time.Since(t0) > time.Duration(c.cfg.CallBudgetUs)*time.Microsecond {
		return ErrCallBudget
	}
	return err
}

// splitmix64 is the SplitMix64 mixer: a stateless hash good enough for
// jitter. Hashing (seed + sequence) needs no generator state beyond
// the draw counter.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// backoffDelay computes the sleep before retry attempt a (1-based):
// exponential doubling of RetryBackoffUs capped at RetryBackoffMaxUs,
// jittered uniformly into [base/2, base], then clamped to the remaining
// step deadline budget so backoff never pushes a Step past its
// watchdog. Outside a running Step (controller construction, restore)
// there is no budget and the delay is zero. Exposed separately from the
// sleep for tests.
func (c *Controller) backoffDelay(attempt int) time.Duration {
	base := c.cfg.RetryBackoffUs
	if base <= 0 || attempt < 1 {
		return 0
	}
	max := c.cfg.RetryBackoffMaxUs
	if max <= 0 {
		max = base << 6
	}
	d := base
	if attempt <= 63 {
		d = base << uint(attempt-1)
	}
	if d <= 0 || d > max {
		d = max
	}
	// Jitter into [d/2, d]; the sequence counter makes every draw
	// distinct.
	half := d / 2
	span := uint64(d - half + 1)
	c.backoffSeq++
	j := half + int64(splitmix64(uint64(c.cfg.Seed)+c.backoffSeq)%span)
	dur := time.Duration(j) * time.Microsecond
	if rem := c.stepBudgetLeft(); dur > rem {
		dur = rem
	}
	return dur
}

// stepBudgetLeft returns how much of the current Step's deadline budget
// remains for sleeping; zero outside a Step.
func (c *Controller) stepBudgetLeft() time.Duration {
	if c.stepBudget <= 0 || c.stepT0.IsZero() {
		return 0
	}
	rem := c.stepBudget - time.Since(c.stepT0)
	if rem < 0 {
		return 0
	}
	return rem
}

// backoffSleep blocks the stepping goroutine for the attempt's jittered
// delay.
func (c *Controller) backoffSleep(attempt int) {
	if d := c.backoffDelay(attempt); d > 0 {
		time.Sleep(d)
	}
}

// BreakerPhase is a per-VM circuit breaker state.
type BreakerPhase int

const (
	// BreakerClosed passes traffic; consecutive faulty Steps are
	// counted toward Config.BreakerThreshold.
	BreakerClosed BreakerPhase = iota
	// BreakerOpen quarantines the VM: every vCPU is treated as
	// degraded and the monitor stage skips its reads entirely.
	BreakerOpen
	// BreakerHalfOpen probes the VM normally; clean probes close the
	// breaker, one faulty probe re-opens it.
	BreakerHalfOpen
)

// String renders the phase for reports and traces.
func (p BreakerPhase) String() string {
	switch p {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// BreakerState is one VM's circuit breaker, exported for inspection and
// checkpointed in Snapshot v3 so kill-and-restore twins stay exact.
type BreakerState struct {
	// State is the current phase.
	State BreakerPhase
	// FaultStreak counts consecutive faulty Steps while closed.
	FaultStreak int
	// OpenLeft counts the remaining quarantine Steps while open.
	OpenLeft int
	// ProbeClean counts consecutive clean probe Steps while half-open.
	ProbeClean int
}

// updateBreaker advances one VM's breaker at the end of a Step, before
// the per-vCPU health accounting: a trip marks every vCPU degraded, and
// the accounting pass must see that.
func (c *Controller) updateBreaker(rep *StepReport, st *VMState) {
	if c.cfg.BreakerThreshold <= 0 {
		return
	}
	faulty := false
	for _, v := range st.VCPUs {
		if v.Degraded {
			faulty = true
			break
		}
	}
	b := &st.Breaker
	switch b.State {
	case BreakerClosed:
		if !faulty {
			b.FaultStreak = 0
			return
		}
		b.FaultStreak++
		if b.FaultStreak >= c.cfg.BreakerThreshold {
			c.tripBreaker(rep, st, fmt.Errorf(
				"core: breaker opened after %d consecutive faulty steps", b.FaultStreak))
		}
	case BreakerOpen:
		b.OpenLeft--
		if b.OpenLeft <= 0 {
			b.State = BreakerHalfOpen
			b.ProbeClean = 0
		}
	case BreakerHalfOpen:
		if faulty {
			c.tripBreaker(rep, st, errors.New("core: breaker re-opened by a faulty probe step"))
			return
		}
		b.ProbeClean++
		need := c.cfg.RecoverySteps
		if need < 1 {
			need = 1
		}
		if b.ProbeClean >= need {
			b.State = BreakerClosed
			b.FaultStreak = 0
			b.ProbeClean = 0
		}
	}
}

// tripBreaker opens a VM's breaker: the quarantine window starts and
// every vCPU degrades (cap held at last-known-good, no credit accrual,
// skipped by monitor and apply) with its last-applied cache dropped —
// the flapping host side may rebuild the cgroups at any point during
// the quarantine.
func (c *Controller) tripBreaker(rep *StepReport, st *VMState, cause error) {
	b := &st.Breaker
	b.State = BreakerOpen
	b.FaultStreak = 0
	b.ProbeClean = 0
	b.OpenLeft = c.cfg.BreakerOpenSteps
	if b.OpenLeft < 1 {
		b.OpenLeft = 1
	}
	rep.BreakerTrips++
	rep.record(Fault{VM: st.Info.Name, VCPU: -1, Stage: "breaker", Op: "open", Err: cause})
	for _, v := range st.VCPUs {
		v.invalidateApplied()
		v.CleanSteps = 0
		if !v.Degraded {
			v.Degraded = true
			v.FailedSteps++
		}
	}
}
