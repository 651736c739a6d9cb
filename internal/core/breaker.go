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

// callStart begins timing one host call against Config.CallBudgetUs and
// reports whether the budget is armed. Inside a Step the call starts
// where the last one ended (c.lap), so the clock is read once per call,
// by budgeted; between Steps no chain runs, and the call is timed on its
// own.
func (c *Controller) callStart() bool {
	if c.cfg.CallBudgetUs <= 0 {
		return false
	}
	if c.stepT0.IsZero() {
		c.lapT0, c.lap = time.Now(), 0
	}
	return true
}

// budgeted converts a success of the call callStart opened into
// ErrCallBudget when the call took longer than Config.CallBudgetUs, and
// starts the next call where this one ended.
func (c *Controller) budgeted(armed bool, err error) error {
	if !armed {
		return err
	}
	end := time.Since(c.lapT0)
	took := end - c.lap
	c.lap = end
	if err == nil && took > time.Duration(c.cfg.CallBudgetUs)*time.Microsecond {
		return ErrCallBudget
	}
	return err
}

// restartLap starts the next budgeted call now. Inside a Step it follows
// the host calls that are not budgeted (ListVMs, a release's ClearMax), so
// their time is not charged to the call after them; between Steps
// callStart restarts every call anyway.
func (c *Controller) restartLap() {
	if c.cfg.CallBudgetUs > 0 && !c.stepT0.IsZero() {
		c.lap = time.Since(c.lapT0)
	}
}

// backoffSleep pauses the stepping goroutine before a retry for
// Config.RetryBackoffUs, cut to what is left of the running Step's
// deadline, and restarts the budget chain after it: the pause is not the
// retry's time. Between Steps (construction, restore, adoption) no
// deadline frames the call, and it does not pause.
func (c *Controller) backoffSleep() {
	if c.stepT0.IsZero() {
		return
	}
	now := time.Since(c.stepT0)
	if d := min(time.Duration(c.cfg.RetryBackoffUs)*time.Microsecond, c.deadline()-now); d > 0 {
		time.Sleep(d)
		now = time.Since(c.stepT0)
	}
	c.lap = now
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
	// BreakerHalfOpen probes the VM normally; one clean probe closes
	// the breaker, one faulty probe re-opens it.
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
// checkpointed in every Snapshot so kill-and-restore twins stay exact.
type BreakerState struct {
	// State is the current phase.
	State BreakerPhase
	// FaultStreak counts consecutive faulty Steps while closed.
	FaultStreak int
	// OpenLeft counts the remaining quarantine Steps while open.
	OpenLeft int
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
		}
	case BreakerHalfOpen:
		if faulty {
			c.tripBreaker(rep, st, errors.New("core: breaker re-opened by a faulty probe step"))
			return
		}
		b.State = BreakerClosed
		b.FaultStreak = 0
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
	b.OpenLeft = max(c.cfg.BreakerOpenSteps, 1)
	rep.BreakerTrips++
	rep.record(Fault{VM: st.Info.Name, VCPU: -1, Stage: "breaker", Op: "open", Err: cause})
	for _, v := range st.VCPUs {
		v.invalidateApplied()
		if !v.Degraded {
			v.Degraded = true
			v.FailedSteps++
		}
	}
}
