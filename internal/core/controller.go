package core

import (
	"fmt"
	"slices"
	"time"

	"vfreq/internal/platform"
)

// VCPUState is the controller's per-vCPU bookkeeping, exported for
// inspection by traces and tests.
type VCPUState struct {
	VM    string
	Index int

	// Hist holds the consumption of the last n periods (u values).
	Hist *History
	// PrevUsageUs is the cumulative usage at the previous step.
	PrevUsageUs int64
	// LastU is u_{i,j,t}: cycles consumed during the last period.
	LastU int64
	// CapUs is c_{i,j,t}: the cycles allocated for the next period
	// (applied as a cgroup quota when control is enabled).
	CapUs int64
	// EstUs is e_{i,j,t}: the estimated upcoming consumption.
	EstUs int64
	// TID is the vCPU thread id.
	TID int
	// LastCore is the core the thread last ran on.
	LastCore int
	// FreqMHz is the monitored virtual frequency estimate:
	// (u/p) × frequency of the last core.
	FreqMHz float64

	// Degraded marks a vCPU whose monitor or apply stage failed during
	// the last Step (after the configured retries). A degraded vCPU is
	// excluded from estimation, credit accrual, the auction and the
	// free distribution: its cap is held at the last-known-good value
	// until the host reads succeed again.
	Degraded bool
	// FailedSteps counts consecutive Steps this vCPU has been
	// degraded; 0 when healthy. A value above 1 indicates a persistent
	// fault (dead thread, vanished cgroup) rather than a transient
	// read race. The first clean Step resets it (counted as Recovered
	// in the StepReport).
	FailedSteps int

	// vm is the VM that lists this vCPU, set by the two constructors
	// (newVCPUState, snapshotVCPU): the auction reads its wallet through
	// it, and Check asserts it.
	vm *VMState

	// warm marks a vCPU registered during the current step: the first
	// usage reading happens at registration time, so no consumption
	// delta exists until the next step. Warm vCPUs keep their initial
	// guarantee-level allocation and accrue no credits.
	warm bool

	// appliedQuotaUs caches the last quota the apply stage successfully
	// wrote for this vCPU (always over Config.CgroupPeriodUs), valid
	// while appliedQuotaOK holds. Apply skips vCPUs whose fresh quota
	// matches the cache, so a steady-state step issues no writes at all. The
	// fields are unexported on purpose: they never enter a checkpoint
	// (a restored vCPU starts with an invalid cache and writes through),
	// and invalidateApplied drops them whenever the cgroup may no longer
	// hold what was last written.
	appliedQuotaUs int64
	appliedQuotaOK bool
}

// invalidateApplied forgets the last-applied quota, forcing the next
// apply stage to write through. Called on every event after which the
// cgroup's content is no longer trusted: a degradation (the cgroup may
// have vanished and been recreated unlimited), a usage counter reset or a
// new thread id (VM restart rebuilds the cgroup), a recovered step panic,
// and a VM reconfiguration.
func (v *VCPUState) invalidateApplied() {
	v.appliedQuotaOK = false
}

// VMState is the controller's per-VM bookkeeping.
type VMState struct {
	Info platform.VMInfo
	// GuaranteeUs is C_i of Eq. 2.
	GuaranteeUs int64
	// CreditUs is the VM's credit wallet (Eq. 4), in cycles.
	CreditUs int64
	// VCPUs holds the per-vCPU states.
	VCPUs []*VCPUState
	// Breaker is the VM's circuit breaker (inert unless
	// Config.BreakerThreshold is positive).
	Breaker BreakerState

	// adopted marks a VM tracked since the last Step that ran its stages:
	// one that AdoptVM or Restore built has caps bounded against another
	// market and cgroups the apply stage has not written yet (Check
	// exempts it). track sets it; the next such Step clears it.
	adopted bool
	// listed is the number of the last Step whose VM listing named this
	// VM; syncVMs drops every VM it did not stamp.
	listed int64
}

// Controller runs the six-stage control loop against a platform host.
type Controller struct {
	cfg  Config
	host platform.Host
	node platform.NodeInfo

	// order holds the tracked VMs in registration order, and every walk
	// goes over it; vms indexes the same VMs by name, for the calls a
	// name comes in with.
	order []*VMState
	vms   map[string]*VMState

	steps  int64
	report StepReport

	// met, when armed via ArmMetrics, receives every finished
	// StepReport; nil (the default) records nothing.
	met *ctrlMetrics

	// stepT0 is the start of the running Step, and the zero time
	// between Steps: a retry pause sleeps only inside a Step, and never
	// past its deadline.
	stepT0 time.Time

	// lapT0 and lap time host calls against Config.CallBudgetUs with one
	// clock reading per call: the next call starts lap after lapT0, and
	// its end starts the call after it. Inside a Step lapT0 is the Step's
	// start, and lap restarts at the start of each stage that calls the
	// host, after ListVMs and a release's ClearMax, and after every retry
	// pause; between Steps each call restarts both.
	lapT0 time.Time
	lap   time.Duration

	// buyersBuf is the auction/distribution buyer list, reused across
	// Steps so the steady-state control loop runs without heap
	// allocations.
	buyersBuf []*VCPUState
}

// New creates a controller.
func New(h platform.Host, cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	node := h.Node()
	if node.Cores <= 0 || node.MaxFreqMHz <= 0 {
		return nil, fmt.Errorf("core: invalid node info %+v", node)
	}
	return &Controller{
		cfg:  cfg,
		host: h,
		node: node,
		vms:  map[string]*VMState{},
	}, nil
}

// Config returns the active configuration.
func (c *Controller) Config() Config { return c.cfg }

// Node returns the node description the controller operates on.
func (c *Controller) Node() platform.NodeInfo { return c.node }

// Steps returns the number of completed control iterations.
func (c *Controller) Steps() int64 { return c.steps }

// LastTimings returns the stage timings of the most recent Step.
func (c *Controller) LastTimings() StageTimings { return c.report.Timings }

// LastReport returns the degradation report of the most recent Step.
func (c *Controller) LastReport() StepReport { return c.report }

// VM returns the state of a VM, or nil.
func (c *Controller) VM(name string) *VMState { return c.vms[name] }

// VMs returns all VM states in provisioning order.
func (c *Controller) VMs() []*VMState { return slices.Clone(c.order) }

// guarantee computes C_i (Eq. 2) for a template frequency on this node.
func (c *Controller) guarantee(freqMHz int64) int64 {
	return c.cfg.PeriodUs * freqMHz / c.node.MaxFreqMHz
}

// hostOp names one of the five host calls a Step issues per vCPU. The
// names are the Fault.Op vocabulary of the monitor and apply stages.
type hostOp uint8

const (
	opUsage   hostOp = iota // Host.UsageUs(vm, i): cpu.stat usage_usec
	opTID                   // Host.ThreadID(vm, i): cgroup.threads
	opLastCPU               // Host.LastCPU(i): /proc/<tid>/stat, i is the tid
	opFreq                  // Host.CoreFreqMHz(i): scaling_cur_freq, i is the core
	opSetMax                // Host.SetMax(vm, i, x, y): cpu.max quota x over period y
)

var hostOpNames = [...]string{"usage", "tid", "lastcpu", "freq", "setmax"}

func (op hostOp) String() string { return hostOpNames[op] }

// hostCall is the controller's whole host-call policy, stated once: up to
// Config.HostRetries extra attempts with a pause of Config.RetryBackoffUs
// before each (cut to what is left of the Step's deadline, none between
// Steps), every attempt timed against Config.CallBudgetUs, and a call
// that blew its budget never retried — the site is slow, not flaky.
// retried reports a success that needed more than one attempt (the
// caller counts it in StepReport.Retries).
//
// hostCall takes no closure and allocates nothing.
func (c *Controller) hostCall(op hostOp, vm string, i int, x, y int64) (val int64, retried bool, err error) {
	for attempt := 0; attempt <= c.cfg.HostRetries && err != ErrCallBudget; attempt++ {
		if attempt > 0 {
			c.backoffSleep()
		}
		armed := c.callStart()
		switch op {
		case opUsage:
			val, err = c.host.UsageUs(vm, i)
		case opTID:
			var tid int
			tid, err = c.host.ThreadID(vm, i)
			val = int64(tid)
		case opLastCPU:
			var core int
			core, err = c.host.LastCPU(i)
			val = int64(core)
		case opFreq:
			val, err = c.host.CoreFreqMHz(i)
		case opSetMax:
			err = c.host.SetMax(vm, i, x, y)
		}
		if err = c.budgeted(armed, err); err == nil {
			return val, attempt > 0, nil
		}
	}
	return 0, false, err
}

// retryUsage reads a vCPU usage counter outside the monitor stage: at
// registration, restore and adoption.
func (c *Controller) retryUsage(rep *StepReport, vm string, j int) (int64, error) {
	usage, retried, err := c.hostCall(opUsage, vm, j, 0, 0)
	if retried {
		rep.Retries++
	}
	return usage, err
}

// validFreq checks a template frequency against this node.
func (c *Controller) validFreq(freqMHz int64) error {
	if freqMHz <= 0 {
		return fmt.Errorf("core: non-positive template frequency %d MHz", freqMHz)
	}
	if freqMHz > c.node.MaxFreqMHz {
		return fmt.Errorf("core: template frequency %d MHz above node F_MAX %d",
			freqMHz, c.node.MaxFreqMHz)
	}
	return nil
}

// newVCPUState registers one vCPU, reading its initial usage counter.
func (c *Controller) newVCPUState(rep *StepReport, st *VMState, j int) (*VCPUState, error) {
	usage, err := c.retryUsage(rep, st.Info.Name, j)
	if err != nil {
		return nil, err
	}
	return &VCPUState{
		VM:          st.Info.Name,
		Index:       j,
		vm:          st,
		Hist:        NewHistory(c.cfg.HistoryLen),
		PrevUsageUs: usage,
		CapUs:       st.GuaranteeUs,
		EstUs:       st.GuaranteeUs,
		LastCore:    -1,
		warm:        true,
	}, nil
}

// releaseVCPU restores a vCPU cgroup to an unlimited quota when the
// controller stops managing it — on VM departure and on a live
// vCPU-count shrink. Without this, a reused cgroup path would inherit
// the dead vCPU's quota. The restore is best-effort: on a real
// departure the cgroup is usually already gone.
func (c *Controller) releaseVCPU(vm string, j int) {
	if !c.cfg.ControlEnabled {
		return
	}
	_ = c.host.ClearMax(vm, j)
	c.restartLap()
}

// syncVMs reconciles the controller state with the host's VM list:
// registering arrivals, cleaning up departures, and applying live
// template changes (frequency and vCPU count) to running VMs. Only a
// failed VM enumeration aborts the reconcile; per-VM problems degrade
// that VM alone and are recorded in the report.
func (c *Controller) syncVMs(rep *StepReport) error {
	infos, err := c.host.ListVMs()
	if err != nil {
		return fmt.Errorf("core: listing VMs: %w", err)
	}
	c.restartLap()
	for _, info := range infos {
		if st, ok := c.vms[info.Name]; ok {
			st.listed = rep.Step
			c.reconcileVM(rep, st, info)
			continue
		}
		// An arrival holds nothing to carry over: cold registration is
		// adopting the empty snapshot. It is atomic per VM, and a rejected
		// template or a failed first read is retried every period.
		st, _, err := c.adopt(rep, info, VMSnapshot{}, false)
		if err != nil {
			rep.record(err.(Fault))
			continue
		}
		st.listed = rep.Step
		c.track(st)
		rep.Added = append(rep.Added, info.Name)
	}
	// Drop departed VMs in registration order (reports and the seeded
	// fault draws of the release writes replay), releasing their quotas
	// so reused cgroup paths start unthrottled.
	c.order = slices.DeleteFunc(c.order, func(st *VMState) bool {
		if st.listed == rep.Step {
			return false
		}
		for _, v := range st.VCPUs {
			c.releaseVCPU(st.Info.Name, v.Index)
		}
		delete(c.vms, st.Info.Name)
		rep.Removed = append(rep.Removed, st.Info.Name)
		return true
	})
	return nil
}

// reconcileVM applies a live template change to an already-registered VM:
// a frequency change recomputes the Eq. 2 guarantee (after re-validation
// against F_MAX), and a vCPU-count change grows or shrinks the tracked
// vCPU set.
func (c *Controller) reconcileVM(rep *StepReport, st *VMState, info platform.VMInfo) {
	reconfigured := false
	if info.FreqMHz != st.Info.FreqMHz {
		if err := c.validFreq(info.FreqMHz); err != nil {
			// Hold the last-known-good template; the fault is
			// re-reported every period until the host fixes it.
			rep.record(Fault{VM: info.Name, VCPU: -1, Stage: "sync", Op: "template", Err: err})
			info.FreqMHz = st.Info.FreqMHz
		} else {
			st.GuaranteeUs = c.guarantee(info.FreqMHz)
			reconfigured = true
		}
	}
	if info.VCPUs < len(st.VCPUs) {
		// Shrink: stop controlling the trailing vCPUs and leave their
		// cgroups unthrottled.
		for j := info.VCPUs; j < len(st.VCPUs); j++ {
			c.releaseVCPU(info.Name, j)
		}
		st.VCPUs = st.VCPUs[:info.VCPUs]
		reconfigured = true
	} else if info.VCPUs > len(st.VCPUs) {
		// Grow: register the new vCPUs warm. A failed initial read
		// stops the growth at that index; the remainder is retried
		// next period.
		for j := len(st.VCPUs); j < info.VCPUs; j++ {
			v, err := c.newVCPUState(rep, st, j)
			if err != nil {
				rep.record(Fault{VM: info.Name, VCPU: j, Stage: "sync", Op: "usage", Err: err})
				break
			}
			st.VCPUs = append(st.VCPUs, v)
		}
		reconfigured = true
	}
	st.Info = info
	if reconfigured {
		// A reconfiguration may have rebuilt the VM's cgroup tree on the
		// host side; write the next caps through instead of trusting the
		// last-applied cache.
		for _, v := range st.VCPUs {
			v.invalidateApplied()
		}
		rep.Reconfigured = append(rep.Reconfigured, info.Name)
	}
}

// Step runs one full control iteration. In a live deployment it is called
// every PeriodUs of wall-clock time; in simulation, after advancing the
// simulated machine by one period.
//
// Step is fault-isolated: a failed read or write for one vCPU degrades
// that vCPU alone (its cap is held at the last-known-good value, the
// fault is recorded in the StepReport) while every other vCPU receives a
// fresh quota. Step returns an error only when the whole host is
// unreachable, i.e. the VM enumeration itself fails.
//
// Step is additionally watchdogged: a panic in any stage is recovered
// into a degraded step (every vCPU marked degraded, the panic recorded as
// a fault), and a step whose wall-clock time crosses its deadline, half
// the period, is flagged Overrun with skipped-period accounting, so a
// periodic caller can detect and report missed ticks.
func (c *Controller) Step() error {
	rep := StepReport{Step: c.steps + 1}
	t0 := time.Now()
	err := c.runStages(&rep, t0)
	rep.Timings.Total = time.Since(t0)
	if period := time.Duration(c.cfg.PeriodUs) * time.Microsecond; rep.Timings.Total >= period {
		rep.SkippedPeriods = int64(rep.Timings.Total / period)
	}

	rep.VMs = len(c.order)
	for _, st := range c.order {
		// The breaker advances first: a trip quarantines the VM by
		// marking every vCPU degraded, and the health accounting below
		// must count the step the way the quarantine leaves it.
		// A Step that failed whole ran no stage: the Degraded flags are
		// the previous Step's, and the breaker must not count them again.
		if err == nil {
			c.updateBreaker(&rep, st)
			st.adopted = false
		}
		switch st.Breaker.State {
		case BreakerOpen:
			rep.OpenVMs++
		case BreakerHalfOpen:
			rep.HalfOpenVMs++
		}
		for _, v := range st.VCPUs {
			rep.VCPUs++
			if v.Degraded {
				rep.DegradedVCPUs++
			} else if v.FailedSteps > 0 {
				v.FailedSteps = 0
				rep.Recovered++
			}
		}
	}
	c.report = rep
	if err == nil {
		c.steps++
	}
	if c.met != nil {
		c.met.recordStep(&rep)
	}
	return err
}

// PeriodSleep returns how long a periodic caller should sleep after a
// Step that took spent wall-clock time, clamped to zero when the Step
// overran its period. The clamp matters: a naive `period - spent` sleep
// goes negative on an overrun, and callers that pass a negative duration
// to time.Sleep return immediately but then mis-attribute the overrun
// time to the next period's usage delta.
func (c *Controller) PeriodSleep(spent time.Duration) time.Duration {
	period := time.Duration(c.cfg.PeriodUs) * time.Microsecond
	if spent >= period {
		return 0
	}
	return period - spent
}

// deadline is a Step's wall-clock budget: half the period. A Step that
// runs past it is flagged Overrun, and a retry pause never sleeps past
// it. The paper's Step spends about 5 ms of a 1 s period, so crossing
// half the period means the host is pathologically slow.
func (c *Controller) deadline() time.Duration {
	return time.Duration(c.cfg.PeriodUs/2) * time.Microsecond
}

// runStages executes the six stages under the watchdog: a per-stage
// deadline check and a panic recovery that converts a crashing stage
// into a degraded (but completed) step.
func (c *Controller) runStages(rep *StepReport, t0 time.Time) (err error) {
	deadline := c.deadline()
	// Retry pauses sleep only while this Step runs; the reset also runs
	// after a recovered panic. The Step's host calls are timed from t0.
	c.stepT0, c.lapT0, c.lap = t0, t0, 0
	defer func() { c.stepT0 = time.Time{} }()
	checkStage := func(name string) {
		if !rep.Overrun && time.Since(t0) > deadline {
			rep.Overrun = true
			rep.OverrunStage = name
		}
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		rep.Panicked = true
		rep.record(Fault{VCPU: -1, Stage: "step", Op: "panic",
			Err: fmt.Errorf("core: recovered step panic: %v", r)})
		// The panic may have unwound mid-stage: the surviving per-vCPU
		// state is suspect, so every vCPU degrades (caps held, no credit
		// accrual) until fresh measurements rebuild it — and the
		// last-applied quota cache is dropped, since the apply stage may
		// have died between writing a cgroup and recording the write.
		for _, st := range c.order {
			for _, v := range st.VCPUs {
				v.invalidateApplied()
				if !v.Degraded {
					v.Degraded = true
					v.FailedSteps++
				}
			}
		}
	}()

	if err := c.syncVMs(rep); err != nil {
		return err
	}
	checkStage("sync")

	tm0 := time.Now()
	c.lap = tm0.Sub(t0)
	c.monitor(rep)
	rep.Timings.Monitor = time.Since(tm0)
	checkStage("monitor")

	te := time.Now()
	c.estimateAll()
	rep.Timings.Estimate = time.Since(te)
	checkStage("estimate")

	tf := time.Now()
	c.enforceBase()
	rep.Timings.Enforce = time.Since(tf)
	checkStage("enforce")

	ta := time.Now()
	market := c.auction(c.market())
	rep.Timings.Auction = time.Since(ta)
	checkStage("auction")

	td := time.Now()
	c.distribute(market)
	rep.Timings.Distribute = time.Since(td)
	checkStage("distribute")

	tp := time.Now()
	c.lap = tp.Sub(t0)
	if c.cfg.ControlEnabled {
		c.apply(rep)
	}
	rep.Timings.Apply = time.Since(tp)
	checkStage("apply")
	return nil
}

// monitor implements stage 1: read consumption deltas, thread placement
// and core frequencies, and derive each vCPU's virtual frequency
// estimate. The thread location is read once per iteration, as discussed
// in §III-B1 of the paper.
//
// One loop on the stepping goroutine, in registration order: a vCPU's
// four host reads, then its commit, then the next vCPU — the paper's
// serial monitor, which is where 4 of its 5 ms per period go.
func (c *Controller) monitor(rep *StepReport) {
	for _, st := range c.order {
		if st.Breaker.State == BreakerOpen {
			// Quarantined: no reads at all. The vCPUs stay degraded
			// (caps held, quotas untouched) until the breaker half-opens
			// and a probe step reads them again.
			continue
		}
		for _, v := range st.VCPUs {
			c.monitorVCPU(rep, v)
		}
	}
}

// monitorVCPU reads one vCPU and commits the readings. The reads of one
// vCPU commit atomically: when any of them fails (after the configured
// retries) the vCPU keeps its previous bookkeeping and is marked degraded
// for this Step, so a later successful read observes one consistent
// cumulative delta instead of a half-updated state.
func (c *Controller) monitorVCPU(rep *StepReport, v *VCPUState) {
	usage, ok := c.read(rep, v, opUsage, v.VM, v.Index)
	if !ok {
		return
	}
	tid, ok := c.read(rep, v, opTID, v.VM, v.Index)
	if !ok {
		return
	}
	core, ok := c.read(rep, v, opLastCPU, "", int(tid))
	if !ok {
		return
	}
	freq, ok := c.read(rep, v, opFreq, "", int(core))
	if !ok {
		return
	}
	// FailedSteps holds until the end of Step, where the recovery
	// accounting runs after apply had its chance to degrade the vCPU
	// again.
	v.Degraded = false

	if !v.warm && int(tid) != v.TID {
		// A new thread: the VM restarted under its name, and its
		// cgroup was rebuilt with an unlimited quota, whether or not
		// the new counter has passed the last reading yet.
		v.invalidateApplied()
	}
	if v.warm {
		// Registered this step: the delta against the registration
		// reading spans no time yet.
		v.PrevUsageUs = usage
		v.warm = false
	} else {
		u := usage - v.PrevUsageUs
		if u < 0 {
			u = 0 // counter reset (VM restart)
			// The restart rebuilt the cgroup with an unlimited quota;
			// forget the cached write so apply restores ours.
			v.invalidateApplied()
		}
		if u > c.cfg.PeriodUs {
			// A delta spanning periods missed while degraded; clamp
			// to the per-period maximum a single thread can attain.
			u = c.cfg.PeriodUs
		}
		v.PrevUsageUs = usage
		v.LastU = u
		v.Hist.Push(u)
	}
	v.TID = int(tid)
	v.LastCore = int(core)
	v.FreqMHz = float64(v.LastU) / float64(c.cfg.PeriodUs) * float64(freq)
}

// read issues one monitor read of v through hostCall; a failure degrades
// v, and ok reports whether the vCPU's chain of reads may go on.
func (c *Controller) read(rep *StepReport, v *VCPUState, op hostOp, vm string, i int) (val int64, ok bool) {
	val, retried, err := c.hostCall(op, vm, i, 0, 0)
	if retried {
		rep.Retries++
	}
	if err != nil {
		c.degrade(rep, v, "monitor", op, err)
	}
	return val, err == nil
}

// degrade marks a vCPU whose monitor or apply stage failed this Step: its
// cap holds at the last-known-good value and the fault is recorded. The
// last-applied cache drops with it — a failed read often means the
// cgroup vanished (it comes back unlimited), and a failed write leaves
// the cgroup holding the previous quota — so the next clean step writes
// through.
func (c *Controller) degrade(rep *StepReport, v *VCPUState, stage string, op hostOp, err error) {
	v.invalidateApplied()
	v.Degraded = true
	v.FailedSteps++
	rep.record(Fault{VM: v.VM, VCPU: v.Index, Stage: stage, Op: op.String(), Err: err})
}

// market computes Eq. 6: the cycles of the next period not allocated to
// any vCPU. It is negative where guarantees are oversubscribed (Eq. 7
// violated by the placement layer); auction sells nothing then.
func (c *Controller) market() int64 {
	total := int64(c.node.Cores) * c.cfg.PeriodUs
	for _, st := range c.order {
		for _, v := range st.VCPUs {
			total -= v.CapUs
		}
	}
	return total
}

// buyers returns the vCPUs whose estimate exceeds their cap, i.e. those
// that want to buy cycles, grouped per VM in a stable order. Degraded
// vCPUs never buy: their estimate is stale and their cap is held.
// The returned slice aliases a buffer reused across Steps; it is valid
// until the next buyers call.
func (c *Controller) buyers() []*VCPUState {
	out := c.buyersBuf[:0]
	for _, st := range c.order {
		for _, v := range st.VCPUs {
			if !v.Degraded && v.CapUs < v.EstUs {
				out = append(out, v)
			}
		}
	}
	c.buyersBuf = out
	return out
}

// sortByCredit orders buyers so that vCPUs of VMs with larger wallets come
// first — the paper's "priority to VMs that used this possibility of
// allocation burst less often". A stable insertion sort (buyer lists are
// bounded by the vCPUs of one node) keeps the auction path free of the
// allocations sort.SliceStable would add.
func (c *Controller) sortByCredit(buyers []*VCPUState) {
	for i := 1; i < len(buyers); i++ {
		b := buyers[i]
		j := i
		for j > 0 && buyers[j-1].vm.CreditUs < b.vm.CreditUs {
			buyers[j] = buyers[j-1]
			j--
		}
		buyers[j] = b
	}
}
