// Package cluster orchestrates virtual-frequency-controlled nodes at the
// datacenter level, implementing the direction the paper sketches in
// §III-C and §V: admission through the core-splitting constraint (Eq. 7),
// one frequency controller per node, migration-based rebalancing when a
// node's guarantees become infeasible, and cluster-wide energy
// accounting with idle nodes powered off.
//
// Step feeds a persistent bounded worker pool instead of spawning
// goroutines, and the steady state (no failures, no placements)
// allocates nothing. Admission, Rebalance and evacuation scan the nodes
// with placement.Choose and read each node's load from its vm.Manager,
// the only record of what the node carries and of where a VM runs.
package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"vfreq/internal/core"
	"vfreq/internal/host"
	"vfreq/internal/placement"
	"vfreq/internal/platform"
	"vfreq/internal/vm"
	"vfreq/internal/workload"
)

// Config tunes the cluster manager.
type Config struct {
	// Controller is the per-node controller configuration; the zero
	// value means core.DefaultConfig().
	Controller core.Config
	// Policy is the admission constraint (defaults to Eq. 7 with
	// memory enforcement).
	Policy placement.Policy
	// Algorithm selects the admission packer (defaults to BestFit).
	Algorithm placement.Algorithm
	// FailThreshold is the number of consecutive failed Steps — the
	// node's host unreachable for the whole period, its controller
	// recovering a panic, or every tracked vCPU degraded (the host
	// answers enumeration but no measurement or quota write succeeds)
	// — after which the node is marked failed: it is excluded from
	// admission and its VMs are evacuated to the surviving nodes. A
	// failed node is re-admitted after one clean Step. 0 disables
	// failure detection.
	FailThreshold int
	// StepWorkers bounds the worker pool that steps the nodes during
	// Cluster.Step: 0 picks GOMAXPROCS, 1 steps serially on the calling
	// goroutine, and any other value is capped at the node count. The
	// pool goroutines are created once, at the first parallel Step, and
	// fed node indices over a reusable queue; call Close to stop them.
	// Nodes share no mutable state while stepping (each owns its
	// machine, manager, controller and meter), so the per-node reports,
	// failure counters and energy accounting are bit-identical at any
	// worker count: the failure/evacuation pass and the error join
	// always run sequentially in node-index order.
	StepWorkers int
}

func (c Config) withDefaults() Config {
	if c.Controller.PeriodUs == 0 {
		c.Controller = core.DefaultConfig()
	}
	if c.Policy.Factor == 0 {
		c.Policy = placement.Policy{
			Mode: placement.VirtualFrequency, Factor: 1, Memory: true,
		}
	}
	return c
}

// Node is one managed machine.
type Node struct {
	Index   int
	Machine *host.Machine
	Manager *vm.Manager
	Ctrl    *core.Controller

	// LastReport is the degradation report of the node's most recent
	// controller Step (zero before the first Step).
	LastReport core.StepReport
	// LastErr is the node-level error of the most recent Step, set
	// only when the node's host was unreachable for the whole period.
	LastErr error
	// FailedSteps counts consecutive Steps that failed at node level
	// (LastErr set, or the controller recovered a panic); 0 after a
	// clean Step.
	FailedSteps int
	// Failed marks a node past Config.FailThreshold: it accepts no new
	// placements and its VMs are being evacuated. The mark clears after
	// one clean Step.
	Failed bool

	energyJ float64 // energy accrued while hosting at least one VM
	lastJ   float64
}

// Spec returns the node's hardware description.
func (n *Node) Spec() host.Spec { return n.Machine.Spec() }

// VMs returns the names of the VMs deployed on this node.
func (n *Node) VMs() []string {
	out := make([]string, 0, len(n.Manager.List()))
	for _, inst := range n.Manager.List() {
		out = append(out, inst.Name())
	}
	return out
}

// loadOf and capacityOf put a template and a node into the units of the
// admission constraint, which placement owns (Eq. 7).
func loadOf(tpl vm.Template) placement.Load {
	v := placement.VMSpec{VCPUs: tpl.VCPUs, FreqMHz: tpl.FreqMHz, MemoryGB: tpl.MemoryGB}
	return v.Load()
}

func capacityOf(spec host.Spec) placement.Load {
	n := placement.NodeSpec{Cores: spec.Cores, MaxFreqMHz: spec.MaxMHz, MemoryGB: spec.MemoryGB}
	return n.Capacity()
}

// used returns the total load of the VMs n carries, summed from its
// Manager.
func used(n *Node) placement.Load {
	var l placement.Load
	for _, inst := range n.Manager.List() {
		l = l.Add(loadOf(inst.Template()))
	}
	return l
}

// Cluster manages a set of nodes.
type Cluster struct {
	cfg      Config
	nodes    []*Node
	migStats MigrationStats

	evacuations int // cumulative VMs moved off failed nodes

	// health is the last Step's Health: the nodes' LastReport summed in
	// Step's error-join walk, then the failure/evacuation pass's counts.
	health Health

	errScratch []error // reused error-join scratch

	// Persistent step worker pool (see Config.StepWorkers).
	workers    int
	stepCh     chan int
	stepWG     sync.WaitGroup
	stepPeriod int64
	panicMu    sync.Mutex
	panicVal   any

	// met, when armed via ArmMetrics, receives every finished Step;
	// nil (the default) records nothing.
	met *clusterMetrics
}

// New boots one machine per spec.
func New(specs []host.Spec, cfg Config) (*Cluster, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("cluster: no nodes")
	}
	cfg = cfg.withDefaults()
	if err := cfg.Policy.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Algorithm.Validate(); err != nil {
		return nil, err
	}
	if cfg.Policy.CoreSplitting {
		return nil, fmt.Errorf("cluster: Policy.CoreSplitting is not supported by online admission (plain Eq. 7); only the offline placement.Place checks per-core feasibility")
	}
	c := &Cluster{cfg: cfg}
	for i, spec := range specs {
		machine, err := host.New(spec)
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		mgr, err := vm.NewManager(machine)
		if err != nil {
			return nil, err
		}
		ctrl, err := core.New(platform.NewSim(mgr), cfg.Controller)
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, &Node{
			Index:   i,
			Machine: machine,
			Manager: mgr,
			Ctrl:    ctrl,
		})
	}
	return c, nil
}

// Close stops the step worker pool, if one was started. The cluster
// must not be stepped after (or concurrently with) Close. Close is
// idempotent; a cluster stepped serially needs no Close.
func (c *Cluster) Close() {
	if c.stepCh != nil {
		close(c.stepCh)
		c.stepCh = nil
	}
}

// Nodes returns the managed nodes.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Migrations returns the number of VM migrations performed so far.
func (c *Cluster) Migrations() int { return c.migStats.Committed }

// Evacuations returns the number of VMs moved off failed nodes so far
// (every evacuation is also counted in Migrations).
func (c *Cluster) Evacuations() int { return c.evacuations }

// Locate returns the index of the node whose manager holds the named
// VM, or -1. The managers are the only record of placement, so Locate
// asks each in node-index order; outside Migrate's prepare→commit no VM
// is on two nodes.
func (c *Cluster) Locate(name string) int {
	for i, n := range c.nodes {
		if n.Manager.Get(name) != nil {
			return i
		}
	}
	return -1
}

// admits is the admission constraint: whether node n may carry total
// load l under the policy.
func (c *Cluster) admits(n *Node, l placement.Load) bool {
	return c.cfg.Policy.Admits(capacityOf(n.Spec()), l)
}

// fits checks the admission constraint for tpl joining node n.
func (c *Cluster) fits(n *Node, tpl vm.Template) bool {
	return c.fitsResized(n, vm.Template{}, tpl)
}

// fitsResized checks the admission constraint with old's demand on n
// replaced by tpl's.
func (c *Cluster) fitsResized(n *Node, old, tpl vm.Template) bool {
	return c.cfg.Policy.Attainable(tpl.FreqMHz, n.Spec().MaxMHz) &&
		c.admits(n, used(n).Sub(loadOf(old)).Add(loadOf(tpl)))
}

// remaining returns the free CPU capacity of n in the policy's unit, for
// the BestFit/WorstFit choice.
func (c *Cluster) remaining(n *Node) float64 {
	return c.cfg.Policy.Headroom(capacityOf(n.Spec()), used(n))
}

// Deploy admits a VM onto the cluster and provisions it. sources may be
// nil (idle VM). It returns the chosen node index.
func (c *Cluster) Deploy(name string, tpl vm.Template, sources []workload.Source) (int, error) {
	if c.Locate(name) >= 0 {
		return -1, fmt.Errorf("cluster: VM %q already deployed", name)
	}
	chosen, err := c.choose(c.cfg.Algorithm, tpl, -1)
	if err != nil {
		return -1, err
	}
	if chosen == -1 {
		return -1, fmt.Errorf("cluster: no node can host %q (%d vCPU @ %d MHz, %d GB)",
			name, tpl.VCPUs, tpl.FreqMHz, tpl.MemoryGB)
	}
	if _, err := c.nodes[chosen].Manager.Provision(name, tpl, sources); err != nil {
		return -1, err
	}
	return chosen, nil
}

// choose picks the node alg prefers for tpl among the non-failed nodes
// other than exclude (-1 excludes none), or -1 when none fits.
func (c *Cluster) choose(alg placement.Algorithm, tpl vm.Template, exclude int) (int, error) {
	return placement.Choose(alg, len(c.nodes),
		func(i int) bool { return i != exclude && !c.nodes[i].Failed && c.fits(c.nodes[i], tpl) },
		func(i int) float64 { return c.remaining(c.nodes[i]) })
}

// bestTarget picks the BestFit migration target for tpl among the
// non-failed nodes other than exclude, or -1.
func (c *Cluster) bestTarget(tpl vm.Template, exclude int) int {
	target, _ := c.choose(placement.BestFit, tpl, exclude) // BestFit is valid
	return target
}

// Undeploy removes a VM from the cluster.
func (c *Cluster) Undeploy(name string) error {
	idx := c.Locate(name)
	if idx < 0 {
		return fmt.Errorf("cluster: no VM %q", name)
	}
	return c.nodes[idx].Manager.Destroy(name)
}

// MigrationStats counts migration outcomes since the cluster booted.
// Attempted covers every Migrate call that passed validation and tried
// to move (no-ops excluded); Committed those where the VM now runs on
// the target, so Attempted − Committed counts the refused attempts (an
// infeasible target, a prepare the target refused). StateCarried counts
// committed migrations whose controller state (credits, histories,
// breaker) was adopted on the target rather than cold-started.
type MigrationStats struct {
	Attempted    int
	Committed    int
	StateCarried int
}

// MigrationStats returns the migration outcome counters.
func (c *Cluster) MigrationStats() MigrationStats { return c.migStats }

// Migrate moves a VM to another node in a prepare→commit sequence that
// can never lose the VM:
//
//   - prepare: the VM is provisioned on the target while still running
//     on the source. If that fails, nothing changed — the VM keeps
//     running where it was and the cluster state is untouched.
//   - commit: the source copy is destroyed, which cannot fail for a VM
//     the source manager holds. Should Destroy ever return an error, the
//     prepared target copy is destroyed again, the VM stays on the
//     source, and the joined error is returned; no counter beyond
//     Attempted moves.
//
// On commit the source controller's state for the VM — its credit
// wallet, consumption histories and breaker phase — is exported and
// adopted by the target node's controller, so the control loop resumes
// on the target instead of restarting from scratch; if the adoption
// fails (the target host faulting mid-migration) the target controller
// registers the VM cold on its next Step, which only forfeits history.
// The workload sources carry their own state, so the VM's benchmark
// resumes where it left off; the vCPU usage counters restart from zero
// on the target, as they do after a real migration.
//
// Migrating a VM onto the node it already occupies is a documented
// no-op: Migrate returns (false, nil) without touching the VM or any
// counter, so Rebalance accounting stays exact. moved is true exactly
// when the VM changed nodes (and Migrations grew by one).
func (c *Cluster) Migrate(name string, target int) (moved bool, err error) {
	src := c.Locate(name)
	if src < 0 {
		return false, fmt.Errorf("cluster: no VM %q", name)
	}
	if target < 0 || target >= len(c.nodes) {
		return false, fmt.Errorf("cluster: no node %d", target)
	}
	if target == src {
		return false, nil
	}
	c.migStats.Attempted++
	if c.met != nil {
		c.met.migAttempted.Inc()
	}
	from, to := c.nodes[src], c.nodes[target]
	inst := from.Manager.Get(name)
	tpl := inst.Template()
	if !c.fits(to, tpl) {
		return false, fmt.Errorf("cluster: node %d cannot host %q", target, name)
	}
	// Export the controller state up front: it reads nothing from the
	// (possibly failing) source host. A controller that never learned
	// the VM (deployed but not yet stepped) has nothing to carry; the
	// move still proceeds.
	snap, exportErr := from.Ctrl.ExportVM(name)
	// Prepare.
	if _, err := to.Manager.Provision(name, tpl, inst.Sources()); err != nil {
		return false, fmt.Errorf("cluster: preparing %q on node %d: %w", name, target, err)
	}
	// Commit.
	if err := from.Manager.Destroy(name); err != nil {
		if rbErr := to.Manager.Destroy(name); rbErr != nil {
			err = errors.Join(err, fmt.Errorf("cluster: rolling back %q on node %d: %w", name, target, rbErr))
		}
		return false, fmt.Errorf("cluster: migrating %q off node %d: %w", name, src, err)
	}
	from.Ctrl.ForgetVM(name)
	c.migStats.Committed++
	if c.met != nil {
		c.met.migCommitted.Inc()
	}
	if exportErr == nil && to.Ctrl.AdoptVM(snap) == nil {
		c.migStats.StateCarried++
		if c.met != nil {
			c.met.migStateCarried.Inc()
		}
	}
	return true, nil
}

// Resize live-reconfigures a deployed VM to a new template — the
// continuous template adjustment adaptive resource managers perform —
// re-checking the admission constraint with the VM's old demand
// replaced by the new one. srcs supplies workloads for vCPUs added by a
// grow (nil = idle); the VM keeps running throughout, and the node's
// controller picks the new shape up on its next Step.
func (c *Cluster) Resize(name string, tpl vm.Template, srcs []workload.Source) error {
	idx := c.Locate(name)
	if idx < 0 {
		return fmt.Errorf("cluster: no VM %q", name)
	}
	n := c.nodes[idx]
	old := n.Manager.Get(name).Template()
	if !c.fitsResized(n, old, tpl) {
		return fmt.Errorf("cluster: node %d cannot host %q resized to %d vCPU @ %d MHz, %d GB",
			idx, name, tpl.VCPUs, tpl.FreqMHz, tpl.MemoryGB)
	}
	return n.Manager.Reconfigure(name, tpl, srcs)
}

// Overloaded returns the indices of nodes whose deployed guarantees
// violate the admission constraint (possible after Undeploy-free external
// changes or a policy change).
func (c *Cluster) Overloaded() []int {
	var out []int
	for i, n := range c.nodes {
		if !c.admits(n, used(n)) {
			out = append(out, i)
		}
	}
	return out
}

// Rebalance migrates VMs away from overloaded nodes until every node
// satisfies the admission constraint or no feasible move remains. It
// returns the number of migrations performed. A node whose VMs have no
// feasible target (or whose migration fails) does not abort the sweep:
// later overloaded nodes are still processed, and the stranded moves
// are reported joined in the returned error alongside the count of
// migrations that did commit.
func (c *Cluster) Rebalance() (int, error) {
	moved := 0
	var errs []error
	for _, idx := range c.Overloaded() {
		n := c.nodes[idx]
		// Move smallest-demand VMs first: they are the cheapest to
		// migrate and often enough to restore feasibility.
		for !c.admits(n, used(n)) {
			name := c.smallestVM(n)
			if name == "" {
				break
			}
			target := c.bestTarget(n.Manager.Get(name).Template(), idx)
			if target == -1 {
				errs = append(errs, fmt.Errorf("cluster: node %d overloaded and no migration target for %q", idx, name))
				break
			}
			if _, err := c.Migrate(name, target); err != nil {
				errs = append(errs, err)
				break
			}
			moved++
		}
	}
	return moved, errors.Join(errs...)
}

// smallestVM returns the deployed VM with the lowest vCPU·F demand.
func (c *Cluster) smallestVM(n *Node) string {
	best := ""
	var bestDemand int64 = 1 << 62
	for _, inst := range n.Manager.List() {
		demand := loadOf(inst.Template()).FreqMHz
		if demand < bestDemand {
			bestDemand = demand
			best = inst.Name()
		}
	}
	return best
}

// stepWorkerCount resolves Config.StepWorkers against GOMAXPROCS and
// the node count.
func (c *Cluster) stepWorkerCount() int {
	w := c.cfg.StepWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > len(c.nodes) {
		w = len(c.nodes)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ensurePool starts the persistent worker pool on the first parallel
// Step. The pool size is fixed for the cluster's lifetime.
func (c *Cluster) ensurePool(workers int) {
	if c.stepCh != nil {
		return
	}
	c.stepCh = make(chan int, len(c.nodes))
	c.workers = workers
	for i := 0; i < workers; i++ {
		go c.stepWorker()
	}
}

func (c *Cluster) stepWorker() {
	for idx := range c.stepCh {
		c.runStep(idx)
	}
}

// runStep steps one node inside a pool worker, capturing a panic for
// re-raise on the Step goroutine so a poisoned node cannot kill a
// worker silently.
func (c *Cluster) runStep(idx int) {
	defer c.stepWG.Done()
	defer func() {
		if r := recover(); r != nil {
			c.panicMu.Lock()
			if c.panicVal == nil {
				c.panicVal = r
			}
			c.panicMu.Unlock()
		}
	}()
	c.stepNode(c.nodes[idx], c.stepPeriod)
}

// Step advances every node by one control period and runs its
// controller. Node failures are isolated: a node whose host is
// unreachable for the period does not stop the other nodes from being
// controlled — its error is recorded on the node and returned joined
// with any others after every node has stepped.
//
// Nodes step on the persistent worker pool (Config.StepWorkers); the
// walks after the barrier — the deterministic node-index-order error
// join, the Health sum, and the failure/evacuation pass —
// always run sequentially on the calling goroutine, so reports,
// checkpoints and returned errors are bit-identical at any worker
// count. With no failed node the whole path allocates nothing.
//
// When Config.FailThreshold is positive, Step additionally tracks
// consecutive node-level failures: a node past the threshold is marked
// failed, excluded from admission, and its VMs are evacuated to the
// surviving nodes under the same Eq. 7 constraint as initial placement.
// A failed node re-admits itself after one clean Step.
func (c *Cluster) Step() error {
	var t0 time.Time
	if c.met != nil {
		t0 = time.Now()
	}
	period := c.cfg.Controller.PeriodUs
	if workers := c.stepWorkerCount(); workers > 1 {
		c.ensurePool(workers)
		c.stepPeriod = period
		c.stepWG.Add(len(c.nodes))
		for i := range c.nodes {
			c.stepCh <- i
		}
		c.stepWG.Wait()
		c.panicMu.Lock()
		r := c.panicVal
		c.panicVal = nil
		c.panicMu.Unlock()
		if r != nil {
			panic(r)
		}
	} else {
		for _, n := range c.nodes {
			c.stepNode(n, period)
		}
	}
	// First sequential walk, in node-index order: join node errors
	// deterministically and sum the nodes' reports into Health.
	errs := c.errScratch[:0]
	h := &c.health
	*h = Health{}
	for _, n := range c.nodes {
		if n.LastErr != nil {
			errs = append(errs, fmt.Errorf("cluster: node %d: %w", n.Index, n.LastErr))
		}
		r := &n.LastReport
		h.VCPUs += r.VCPUs
		h.DegradedVCPUs += r.DegradedVCPUs
		h.Faults += r.FaultCount()
		h.Recovered += r.Recovered
		h.OpenVMs += r.OpenVMs
		h.HalfOpenVMs += r.HalfOpenVMs
		h.BreakerTrips += r.BreakerTrips
		if r.Degraded() {
			h.DegradedNodes++
		}
		if r.Overrun {
			h.Overruns++
		}
	}
	// Second sequential walk: mark nodes past the failure threshold and
	// evacuate their VMs. Marking and evacuating in the same ascending
	// walk preserves the original semantics: evacuation from node i may
	// still target a failing but not yet marked node j > i. FailedNodes
	// is counted here because it depends on the marks.
	for _, n := range c.nodes {
		if c.cfg.FailThreshold > 0 {
			if n.FailedSteps >= c.cfg.FailThreshold {
				n.Failed = true
			}
			if n.Failed && len(n.Manager.List()) > 0 {
				ev, str := c.evacuate(n)
				h.EvacuatedVMs += ev
				h.StrandedVMs += str
			}
		}
		if n.LastErr != nil || n.Failed {
			h.FailedNodes++
		}
	}
	err := errors.Join(errs...)
	c.errScratch = errs[:0]
	if c.met != nil {
		c.recordStep(time.Since(t0).Microseconds())
	}
	return err
}

// stepNode advances one node by a period and runs its controller,
// updating only that node's state — which is what makes the concurrent
// Step safe. Energy accrues only while the node hosts at least one VM
// (idle nodes are modelled as powered off); lastJ is resampled every
// Step regardless, so joules burnt while idle are discarded rather than
// attributed to the first period after a deployment.
func (c *Cluster) stepNode(n *Node, period int64) {
	var t0 time.Time
	if c.met != nil {
		t0 = time.Now()
	}
	n.Machine.Advance(period)
	n.LastErr = n.Ctrl.Step()
	n.LastReport = n.Ctrl.LastReport()
	rep := n.LastReport
	if n.LastErr != nil || rep.Panicked ||
		(rep.VCPUs > 0 && rep.DegradedVCPUs == rep.VCPUs) {
		n.FailedSteps++
	} else {
		n.FailedSteps = 0
		n.Failed = false // the host answers again: re-admit
	}
	j := n.Machine.Meter.Joules()
	if len(n.Manager.List()) > 0 {
		n.energyJ += j - n.lastJ
	}
	n.lastJ = j
	if c.met != nil {
		// Shared histogram, concurrent nodes: Observe is atomic-only.
		c.met.nodeStepUs.Observe(time.Since(t0).Microseconds())
	}
}

// evacuate moves every VM off a failed node, choosing BestFit targets
// among the surviving nodes so the Eq. 7 feasibility of every target is
// preserved. Evacuation goes through Migrate's prepare→commit path, so
// an evacuated VM keeps its credit wallet, histories and breaker state
// (ExportVM reads nothing from the failed host), and a mid-evacuation
// failure leaves the VM on the source. VMs with no feasible target (or
// whose migration fails) stay stranded on the failed node; because the
// node stays marked failed, they are retried every Step until capacity
// appears or the node recovers.
func (c *Cluster) evacuate(n *Node) (evacuated, stranded int) {
	for _, name := range n.VMs() {
		target := c.bestTarget(n.Manager.Get(name).Template(), n.Index)
		if target == -1 {
			stranded++
			continue
		}
		if _, err := c.Migrate(name, target); err != nil {
			stranded++
			continue
		}
		evacuated++
	}
	c.evacuations += evacuated
	return evacuated, stranded
}

// Health summarises the degradation of the last Step across the cluster.
type Health struct {
	// VCPUs and DegradedVCPUs aggregate the per-node StepReports.
	VCPUs         int
	DegradedVCPUs int
	// Faults is the total fault count of the last Step.
	Faults int
	// DegradedNodes counts nodes reporting any degradation, and
	// FailedNodes those whose whole host was unreachable or that are
	// marked failed past Config.FailThreshold.
	DegradedNodes int
	FailedNodes   int
	// Overruns counts nodes whose controller crossed its step-deadline
	// budget during the last Step.
	Overruns int
	// Recovered counts vCPUs whose failure counters reset during the
	// last Step: degraded in an earlier Step, clean in this one.
	Recovered int
	// EvacuatedVMs counts VMs moved off failed nodes during the last
	// Step; StrandedVMs those left behind for lack of a feasible target.
	EvacuatedVMs int
	StrandedVMs  int
	// OpenVMs and HalfOpenVMs count the circuit breaker states across
	// the cluster: VMs quarantined after repeated faults and VMs being
	// probed for re-admission.
	OpenVMs     int
	HalfOpenVMs int
	// BreakerTrips counts breakers that opened during the last Step.
	BreakerTrips int
}

// Health returns the degradation summary of the last Step, which Step
// summed over the nodes; the call itself reads the stored sum.
func (c *Cluster) Health() Health { return c.health }

// UsedNodes counts nodes hosting at least one VM.
func (c *Cluster) UsedNodes() int {
	n := 0
	for _, node := range c.nodes {
		if len(node.Manager.List()) > 0 {
			n++
		}
	}
	return n
}

// ActiveEnergyJoules returns the energy consumed by nodes while they
// hosted VMs — the cluster's bill when idle nodes are powered off.
func (c *Cluster) ActiveEnergyJoules() float64 {
	var sum float64
	for _, n := range c.nodes {
		sum += n.energyJ
	}
	return sum
}

// TotalEnergyJoules returns the energy with every node always powered.
func (c *Cluster) TotalEnergyJoules() float64 {
	var sum float64
	for _, n := range c.nodes {
		sum += n.Machine.Meter.Joules()
	}
	return sum
}
