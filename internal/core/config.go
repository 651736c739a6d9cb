// Package core implements the paper's contribution: a feedback controller
// that enforces per-VM virtual frequencies by driving the cgroup CPU
// bandwidth quotas of every vCPU. One Step of the controller runs the six
// stages of the paper's Fig. 2:
//
//  1. monitor per-vCPU cycle consumption, thread placement and core
//     frequencies;
//  2. estimate the upcoming consumption of each vCPU from a trend over a
//     consumption history (Eq. 3) with increase/decrease triggers;
//  3. enforce the base guarantee C_i (Eq. 2), awarding credits to VMs that
//     under-consume (Eq. 4) and capping at min(estimate, C_i) (Eq. 5);
//  4. auction the unallocated market (Eq. 6) to vCPUs whose estimate
//     exceeds their cap, charging VM credit wallets (Algorithm 1);
//  5. distribute any remaining market cycles freely, proportional to
//     residual demand;
//  6. apply the resulting caps as cgroup cpu.max quotas.
package core

import (
	"fmt"
	"time"
)

// Config holds the controller tuning knobs. The defaults reproduce the
// configuration of the paper's evaluation (Section IV-A1).
type Config struct {
	// PeriodUs is p, the control period in microseconds.
	PeriodUs int64
	// HistoryLen is n, the number of past consumptions kept per vCPU
	// for the trend estimation of Eq. 3.
	HistoryLen int
	// IncreaseTrigger is the consumption fraction of the current cap
	// above which, with a positive trend, the cap is raised.
	// Paper value: 0.95.
	IncreaseTrigger float64
	// IncreaseFactor is the relative cap increase applied when the
	// increase trigger fires: newCap = cap × (1 + IncreaseFactor).
	// Paper value: 1.00 ("100%", i.e. doubling).
	IncreaseFactor float64
	// DecreaseTrigger is the consumption fraction of the current cap
	// below which, with a negative trend, the cap is lowered.
	// Paper value: 0.50.
	DecreaseTrigger float64
	// DecreaseFactor is the relative cap decrease applied when the
	// decrease trigger fires: newCap = cap × (1 − DecreaseFactor).
	// Paper value: 0.05 ("5%").
	DecreaseFactor float64
	// StableMargin is the trend magnitude (as a fraction of the mean
	// consumption) below which the consumption is considered stable.
	StableMargin float64
	// WindowUs is the auction window: the largest number of cycles a
	// single buyer may acquire per auction round, preventing a rich VM
	// from buying the whole market (Algorithm 1).
	WindowUs int64
	// MinQuotaUs is the smallest quota ever applied, so an idle vCPU
	// can always wake up (the kernel rejects quotas below 1 ms).
	MinQuotaUs int64
	// CgroupPeriodUs is the cpu.max period quotas are expressed
	// against (the kernel default of 100 ms).
	CgroupPeriodUs int64
	// CreditCapPeriods bounds a VM's credit wallet to this many
	// periods of its full guarantee; 0 means unbounded.
	CreditCapPeriods int64
	// ControlEnabled distinguishes the paper's execution modes: B
	// (true, full control) and A (false, monitoring only — no quota is
	// ever written).
	ControlEnabled bool
	// HostRetries is the number of extra attempts every host call gets
	// (the one policy in hostCall) before the affected vCPU is declared
	// degraded for the period (transient /proc and cgroup read races
	// usually succeed on the immediate retry). 0 disables retrying.
	HostRetries int
	// Deprecated: ignored — the monitor stage is serial; kept only until benchmark/ stops assigning it.
	MonitorWorkers int
	// CallBudgetUs is the deadline of every host call, in microseconds:
	// a call that succeeds but takes longer than this is treated as
	// failed (the affected vCPU degrades, holding its last-known-good
	// cap) and is never retried — retrying a slow call is how a stalling
	// cgroupfs drags a whole Step past the watchdog. 0 disables the
	// budget.
	//
	// Inside a Step a call is timed from where the previous one ended,
	// with one monotonic clock reading per call: it may be charged the
	// few ns of controller code since that call, never less than its own
	// time. The chain restarts at the start of each stage that calls the
	// host, after the host calls that are not budgeted (ListVMs, a
	// release's ClearMax) and after every retry pause, so none of those
	// is charged to the next call. Between Steps each call is timed on
	// its own.
	CallBudgetUs int64
	// RetryBackoffUs, when positive, pauses before every retry of every
	// host call (Config.HostRetries) for this many microseconds, cut to
	// what is left of the running Step's deadline (half the period), so
	// a pause can never push a Step past its watchdog. A call made
	// between Steps retries without pausing. 0 retries immediately.
	RetryBackoffUs int64
	// BreakerThreshold, when positive, arms a per-VM circuit breaker: a
	// VM with any degraded vCPU in BreakerThreshold consecutive Steps
	// trips its breaker open. An open breaker quarantines the VM — all
	// its vCPUs are treated as degraded (caps held, skipped by the
	// monitor and apply stages, no credit accrual) for
	// BreakerOpenSteps, after which the breaker goes half-open and the
	// VM is probed normally; one clean probe Step closes the breaker,
	// one faulty probe re-opens it.
	// Quarantine is what stops a flapping VM (a vCPU thread dying and
	// respawning, a cgroup being rebuilt in a loop) from burning the
	// whole step budget on doomed reads and retries. 0 disables the
	// breaker entirely.
	BreakerThreshold int
	// BreakerOpenSteps is how many Steps a tripped breaker holds the VM
	// quarantined before probing. Values below 1 behave like 1.
	BreakerOpenSteps int
}

// DefaultConfig returns the paper's evaluation configuration.
func DefaultConfig() Config {
	return Config{
		PeriodUs:         1_000_000,
		HistoryLen:       5,
		IncreaseTrigger:  0.95,
		IncreaseFactor:   1.00,
		DecreaseTrigger:  0.50,
		DecreaseFactor:   0.05,
		StableMargin:     0.02,
		WindowUs:         10_000,
		MinQuotaUs:       1_000,
		CgroupPeriodUs:   100_000,
		CreditCapPeriods: 60,
		ControlEnabled:   true,
		HostRetries:      1,
	}
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if c.PeriodUs <= 0 {
		return fmt.Errorf("core: period must be positive")
	}
	if c.HistoryLen < 2 {
		return fmt.Errorf("core: history length must be at least 2")
	}
	if c.IncreaseTrigger <= 0 || c.IncreaseTrigger > 1 {
		return fmt.Errorf("core: increase trigger %g outside (0, 1]", c.IncreaseTrigger)
	}
	if c.IncreaseFactor <= 0 {
		return fmt.Errorf("core: increase factor must be positive")
	}
	if c.DecreaseTrigger < 0 || c.DecreaseTrigger >= 1 {
		return fmt.Errorf("core: decrease trigger %g outside [0, 1)", c.DecreaseTrigger)
	}
	if c.DecreaseFactor <= 0 || c.DecreaseFactor >= 1 {
		return fmt.Errorf("core: decrease factor %g outside (0, 1)", c.DecreaseFactor)
	}
	if c.StableMargin < 0 {
		return fmt.Errorf("core: stable margin must be non-negative")
	}
	if c.WindowUs <= 0 {
		return fmt.Errorf("core: auction window must be positive")
	}
	if c.MinQuotaUs <= 0 || c.MinQuotaUs > c.PeriodUs {
		return fmt.Errorf("core: invalid minimum quota %d", c.MinQuotaUs)
	}
	if c.CgroupPeriodUs <= 0 || c.CgroupPeriodUs > c.PeriodUs {
		return fmt.Errorf("core: cgroup period %d outside (0, period]", c.CgroupPeriodUs)
	}
	if c.CreditCapPeriods < 0 {
		return fmt.Errorf("core: credit cap must be non-negative")
	}
	if c.HostRetries < 0 || c.HostRetries > 16 {
		return fmt.Errorf("core: host retries %d outside [0, 16]", c.HostRetries)
	}
	if c.CallBudgetUs < 0 {
		return fmt.Errorf("core: call budget must be non-negative")
	}
	if c.RetryBackoffUs < 0 {
		return fmt.Errorf("core: retry backoff must be non-negative")
	}
	if c.BreakerThreshold < 0 {
		return fmt.Errorf("core: breaker threshold must be non-negative")
	}
	if c.BreakerOpenSteps < 0 {
		return fmt.Errorf("core: breaker open steps must be non-negative")
	}
	return nil
}

// StageTimings records the wall-clock cost of each stage of one Step,
// mirroring the paper's overhead measurement (5 ms total, 4 ms of which
// monitoring, on chetemi).
type StageTimings struct {
	Monitor    time.Duration
	Estimate   time.Duration
	Enforce    time.Duration
	Auction    time.Duration
	Distribute time.Duration
	Apply      time.Duration
	Total      time.Duration
}
