// Package chaos implements the randomized robustness soak for the
// controller: multi-thousand-step runs over the simulated host where
// every fault site is bombarded with randomized error and latency
// plans. After every single step no panic may escape the step watchdog
// and core.Controller.Check must hold; once the faults cease, full
// recovery is asserted. The package rolls the faults and makes that
// call; the invariants themselves live in Check. The generated plans,
// the workload mix and the churn schedule are all deterministic from one
// seed, so a failing soak replays exactly.
package chaos

import (
	"fmt"
	"math/rand"

	"vfreq/internal/core"
	"vfreq/internal/host"
	"vfreq/internal/metrics"
	"vfreq/internal/platform"
	"vfreq/internal/vm"
	"vfreq/internal/workload"
)

// Options tunes one soak run. The zero value is usable: it runs the
// default step count on the default VM population with a fixed seed.
type Options struct {
	// Seed drives every random decision of the soak: the fault/latency
	// plans, the workload levels, the churn schedule and the injected
	// fault randomness itself. Same seed, same run.
	Seed int64
	// Steps is the length of the fault phase (default 1000). The
	// recovery phase afterwards is separate and bounded internally.
	Steps int
	// VMs is the population size (default 4, capped at 16).
	VMs int
	// EpochSteps is how often the fault plans are re-rolled
	// (default 100): long enough for persistent faults to trip
	// breakers, short enough to visit many plan combinations.
	EpochSteps int
	// Churn, when true, destroys or re-provisions one random VM at
	// every epoch boundary, so reconciliation churns under fire.
	Churn bool
	// Quiet disables all fault and latency injection (and the
	// wall-clock call budget, so scheduler hiccups can't fail a
	// control run): the soak becomes a harness self-check that must
	// finish with zero faults, zero degradation and zero trips.
	Quiet bool
	// Logf, when set, receives progress lines (one per epoch).
	Logf func(format string, args ...any)
	// Metrics, when set, receives the soak's observability: the
	// controller and fault-host instruments plus epoch/churn/step-error
	// counters, so a scraped soak shows its progress live.
	Metrics *metrics.Registry
}

// Result summarises a completed soak.
type Result struct {
	// Steps is the total number of controller steps executed, fault
	// phase plus recovery phase.
	Steps int
	// Epochs is the number of fault-plan re-rolls.
	Epochs int
	// Faults is the total number of reported faults across all steps.
	Faults int
	// DegradedSteps counts steps with at least one degraded vCPU.
	DegradedSteps int
	// StepErrors counts steps that failed whole (an injected ListVMs
	// fault) — tolerated, the controller retries next period.
	StepErrors int
	// Delays is how many host calls were artificially stalled.
	Delays int
	// Trips counts circuit breaker openings.
	Trips int
	// MaxOpenVMs is the largest simultaneous quarantine.
	MaxOpenVMs int
	// Churned counts VM destroy/provision events.
	Churned int
	// RecoveredIn is how many post-fault steps the controller needed to
	// reach a fully healthy step (no degradation, no faults, every
	// breaker closed).
	RecoveredIn int
}

func (r Result) String() string {
	return fmt.Sprintf("soak: %d steps / %d epochs, %d faults, %d degraded steps, %d step errors, %d delays, %d trips (max %d open), %d churn events, recovered in %d steps",
		r.Steps, r.Epochs, r.Faults, r.DegradedSteps, r.StepErrors, r.Delays, r.Trips,
		r.MaxOpenVMs, r.Churned, r.RecoveredIn)
}

// soakConfig is the controller tuning under soak: the full robustness
// layer armed, and a 100 ms period instead of the paper's 1 s, so the
// simulated machine advances 10× fewer scheduler ticks per step and a
// 5,000-step soak stays fast. A quiet soak drops the wall-clock call
// budget, so scheduler hiccups cannot fail a control run.
func soakConfig(quiet bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.PeriodUs = 100_000
	cfg.HostRetries = 1
	cfg.BreakerThreshold = 3
	cfg.BreakerOpenSteps = 4
	if !quiet {
		cfg.CallBudgetUs = 2_000 // only an injected stall can blow this in-process
	}
	cfg.RetryBackoffUs = 100
	return cfg
}

// recoveryBudget is how many Steps a soak's recovery phase gets to reach
// a fully healthy step once every fault is cleared: the quarantine of a
// breaker tripped on the last faulty step, its one clean probe, and a
// generous margin for scheduler noise.
func recoveryBudget(cfg core.Config) int {
	return cfg.BreakerOpenSteps + 1 + 30
}

// option resolves a size option: def when unset, capped at limit (0: no
// cap).
func option(v, def, limit int) int {
	if v <= 0 {
		v = def
	}
	if limit > 0 && v > limit {
		v = limit
	}
	return v
}

// logger is f, or a sink when f is nil.
func logger(f func(string, ...any)) func(string, ...any) {
	if f == nil {
		return func(string, ...any) {}
	}
	return f
}

// Soak runs the chaos soak and returns its summary; any invariant
// violation aborts the run with an error naming the step.
func Soak(o Options) (Result, error) {
	o.Steps, o.VMs, o.EpochSteps = option(o.Steps, 1000, 0), option(o.VMs, 4, 16), option(o.EpochSteps, 100, 0)
	logf := logger(o.Logf)

	machine, err := host.New(host.Chetemi())
	if err != nil {
		return Result{}, err
	}
	mgr, err := vm.NewManager(machine)
	if err != nil {
		return Result{}, err
	}
	rng := rand.New(rand.NewSource(o.Seed))
	provisioned := make([]bool, o.VMs)
	for i := 0; i < o.VMs; i++ {
		if err := provision(mgr, rng, i); err != nil {
			return Result{}, err
		}
		provisioned[i] = true
	}
	fh := platform.WithFaults(platform.NewSim(mgr), o.Seed+1)
	cfg := soakConfig(o.Quiet)
	ctrl, err := core.New(fh, cfg)
	if err != nil {
		return Result{}, err
	}

	// Soak-level counters; the controller and fault host record their
	// own series on the same registry.
	var epochsC, churnC, stepErrC *metrics.Counter
	if o.Metrics != nil {
		ctrl.ArmMetrics(o.Metrics)
		fh.ArmMetrics(o.Metrics)
		epochsC = o.Metrics.Counter("vfreq_chaos_epochs_total", "Fault-plan re-rolls during the soak.")
		churnC = o.Metrics.Counter("vfreq_chaos_churn_total", "VM destroy/provision events during the soak.")
		stepErrC = o.Metrics.Counter("vfreq_chaos_step_errors_total", "Whole-step failures (injected ListVMs faults).")
	}

	var res Result
	listArmed := false

	// Fault phase: re-rolled plans every epoch, invariants every step.
	for step := 0; step < o.Steps; step++ {
		if step%o.EpochSteps == 0 {
			var armed int
			if !o.Quiet {
				listArmed, armed = rollPlans(fh, rng)
			}
			res.Epochs++
			epochsC.Inc()
			if o.Churn {
				i := rng.Intn(o.VMs)
				if provisioned[i] {
					if err := mgr.Destroy(vmName(i)); err != nil {
						return res, fmt.Errorf("chaos: step %d: destroying %s: %w", step, vmName(i), err)
					}
				} else if err := provision(mgr, rng, i); err != nil {
					return res, fmt.Errorf("chaos: step %d: re-provisioning %s: %w", step, vmName(i), err)
				}
				provisioned[i] = !provisioned[i]
				res.Churned++
				churnC.Inc()
			}
			logf("chaos: epoch %d at step %d: %d sites armed (listvms=%v)", res.Epochs, step, armed, listArmed)
		}
		prevErrs := res.StepErrors
		if err := soakStep(machine, ctrl, &res, listArmed, step); err != nil {
			return res, err
		}
		stepErrC.Add(int64(res.StepErrors - prevErrs))
	}
	for _, site := range platform.Sites {
		res.Delays += fh.Delayed(site)
	}

	// Recovery phase: with every plan cleared, the controller must
	// reach a fully healthy step — zero degradation, zero faults, every
	// breaker closed and every quarantined VM re-admitted — within the
	// breaker drain time plus a generous margin. GC pauses or scheduler
	// noise may dirty an individual step, so the assertion is that a
	// clean step EXISTS within the budget, not that every step is clean.
	fh.ClearAll()
	budget := recoveryBudget(cfg)
	recovered := false
	for step := 0; step < budget; step++ {
		if err := soakStep(machine, ctrl, &res, false, o.Steps+step); err != nil {
			return res, err
		}
		rep := ctrl.LastReport()
		if rep.DegradedVCPUs == 0 && rep.FaultCount() == 0 && rep.OpenVMs == 0 && rep.HalfOpenVMs == 0 {
			res.RecoveredIn = step + 1
			recovered = true
			break
		}
	}
	if !recovered {
		return res, fmt.Errorf("chaos: no fully healthy step within %d steps of clearing all faults: %s",
			budget, ctrl.LastReport().String())
	}
	logf("chaos: %s", res.String())
	return res, nil
}

// vmName names the i-th soak VM.
func vmName(i int) string { return fmt.Sprintf("chaos%d", i) }

// provision creates one soak VM from randomVM.
func provision(mgr *vm.Manager, rng *rand.Rand, i int) error {
	tpl, srcs := randomVM(rng, vm.Small(), vm.Medium(), vm.Large())
	_, err := mgr.Provision(vmName(i), tpl, srcs)
	return err
}

// randomVM draws one of tpls and a constant demand in [0.2, 0.8) per
// vCPU.
func randomVM(rng *rand.Rand, tpls ...vm.Template) (vm.Template, []workload.Source) {
	tpl := tpls[rng.Intn(len(tpls))]
	srcs := make([]workload.Source, tpl.VCPUs)
	for j := range srcs {
		srcs[j] = &workload.Constant{Level: 0.2 + 0.6*rng.Float64()}
	}
	return tpl, srcs
}

// rollPlans clears every plan and arms a fresh random set: per site, an
// independent chance of an error plan (rate, count or persistent) and,
// on up to two sites, a latency plan stacked on top. ListVMs only ever
// gets transient errors — a persistent enumeration failure would just
// stall the whole epoch, which tests nothing the first failed step
// didn't. Reports whether ListVMs is armed (its faults fail the whole
// Step, which the soak must tolerate) and how many sites were armed.
func rollPlans(fh *platform.FaultyHost, rng *rand.Rand) (listArmed bool, armed int) {
	fh.ClearAll()
	plans := map[platform.FaultSite]platform.FaultPlan{}
	for _, site := range platform.Sites {
		if rng.Float64() >= 0.35 {
			continue
		}
		var p platform.FaultPlan
		switch rng.Intn(3) {
		case 0:
			p.Rate = 0.02 + 0.23*rng.Float64()
		case 1:
			p.Count = 1 + rng.Intn(5)
		default:
			if site == platform.SiteListVMs {
				p.Count = 1 + rng.Intn(3)
			} else {
				p.Persistent = true
			}
		}
		plans[site] = p
	}
	// Latency on up to two random sites, stacked onto whatever error
	// plan the site already drew. The delays are µs-scale real sleeps:
	// big enough to blow the 2 ms call budget sometimes, small enough
	// that thousands of steps stay fast.
	for i := 0; i < 2; i++ {
		site := platform.Sites[rng.Intn(len(platform.Sites))]
		p := plans[site]
		p.DelayRate = 0.01 + 0.04*rng.Float64()
		p.DelayUs = 100 + rng.Int63n(2_400)
		plans[site] = p
	}
	for site, p := range plans {
		if err := fh.Plan(site, p); err != nil {
			// A rolled plan is armed by construction; a rejection is a
			// soak bug worth crashing on.
			panic(fmt.Sprintf("chaos: rolled an invalid plan for %s: %v", site, err))
		}
		armed++
		if site == platform.SiteListVMs {
			listArmed = true
		}
	}
	return listArmed, armed
}

// soakStep advances the machine one period, runs one controller Step
// and asserts the controller's invariants (core.Controller.Check). step
// is a label for errors.
func soakStep(machine *host.Machine, ctrl *core.Controller, res *Result, listArmed bool, step int) error {
	machine.Advance(ctrl.Config().PeriodUs)
	stepErr, panicked := runStep(ctrl)
	if panicked != nil {
		// The watchdog must swallow stage panics; one escaping Step is
		// the invariant violation this soak exists to catch.
		return fmt.Errorf("chaos: step %d: panic escaped the step watchdog: %v", step, panicked)
	}
	if stepErr != nil {
		if !listArmed {
			return fmt.Errorf("chaos: step %d failed without a ListVMs plan armed: %w", step, stepErr)
		}
		res.StepErrors++
	}
	res.Steps++

	rep := ctrl.LastReport()
	res.Faults += rep.FaultCount()
	res.Trips += rep.BreakerTrips
	if rep.DegradedVCPUs > 0 {
		res.DegradedSteps++
	}
	if rep.OpenVMs > res.MaxOpenVMs {
		res.MaxOpenVMs = rep.OpenVMs
	}
	if err := ctrl.Check(); err != nil {
		return fmt.Errorf("chaos: step %d: %w", step, err)
	}
	return nil
}

// runStep runs one Step, catching any panic that escapes it.
func runStep(ctrl *core.Controller) (err error, panicked any) {
	defer func() { panicked = recover() }()
	err = ctrl.Step()
	return err, panicked
}
