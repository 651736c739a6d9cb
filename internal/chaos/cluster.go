package chaos

import (
	"errors"
	"fmt"
	"math/rand"

	"vfreq/internal/cluster"
	"vfreq/internal/core"
	"vfreq/internal/host"
	"vfreq/internal/vm"
	"vfreq/internal/workload"
)

// ClusterOptions tunes one cluster migration soak: randomized live
// migrations and rebalances layered over randomized node blackouts,
// with the placement and controller-state invariants asserted after
// every cluster Step. Deterministic from the seed.
type ClusterOptions struct {
	// Seed drives the blackout schedule, the migration churn and the
	// workload mix. Same seed, same run.
	Seed int64
	// Steps is the length of the fault phase (default 500).
	Steps int
	// Nodes is the cluster size (default 3, capped at 8).
	Nodes int
	// VMs is the population size (default 6, capped at 16).
	VMs int
	// EpochSteps is how often the blackout plan is re-rolled and a batch
	// of random migrations is attempted (default 25).
	EpochSteps int
	// Quiet disables blackout injection: the soak becomes a harness
	// self-check — migrations under a healthy cluster must produce no
	// faults, no failed steps and no stranded VMs.
	Quiet bool
	// Logf, when set, receives progress lines (one per epoch).
	Logf func(format string, args ...any)
}

// ClusterResult summarises a completed cluster soak.
type ClusterResult struct {
	Steps, Epochs int
	// Blackouts counts node-unreachable windows injected.
	Blackouts int
	// StepErrors counts cluster Steps that reported a node-level error —
	// tolerated while a blackout is armed, fatal otherwise.
	StepErrors int
	// Migration outcomes, mirrored from cluster.MigrationStats at the
	// end of the run.
	Attempted, Committed, RolledBack, StateCarried int
	// MigrateRejected counts randomized Migrate calls the cluster
	// legitimately refused (infeasible target, blackout mid-prepare).
	MigrateRejected int
	// Evacuations counts VMs moved off failed nodes; StrandedSteps the
	// per-step sum of VMs stuck on a failed node with no target.
	Evacuations   int
	StrandedSteps int
	// RecoveredIn is how many post-fault steps the cluster needed to
	// reach a fully healthy step.
	RecoveredIn int
}

func (r ClusterResult) String() string {
	return fmt.Sprintf("cluster soak: %d steps / %d epochs, %d blackouts, %d step errors, migrations %d/%d/%d/%d (attempted/committed/rolled-back/state-carried, %d rejected), %d evacuations, %d stranded steps, recovered in %d steps",
		r.Steps, r.Epochs, r.Blackouts, r.StepErrors,
		r.Attempted, r.Committed, r.RolledBack, r.StateCarried, r.MigrateRejected,
		r.Evacuations, r.StrandedSteps, r.RecoveredIn)
}

// errBlackout is the injected node failure.
var errBlackout = errors.New("chaos: node blackout")

// ClusterSoak runs the cluster migration soak and returns its summary;
// any invariant violation aborts the run with an error naming the step.
func ClusterSoak(o ClusterOptions) (ClusterResult, error) {
	if o.Steps <= 0 {
		o.Steps = 500
	}
	if o.Nodes <= 0 {
		o.Nodes = 3
	}
	if o.Nodes > 8 {
		o.Nodes = 8
	}
	if o.VMs <= 0 {
		o.VMs = 6
	}
	if o.VMs > 16 {
		o.VMs = 16
	}
	if o.EpochSteps <= 0 {
		o.EpochSteps = 25
	}
	logf := o.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	specs := make([]host.Spec, o.Nodes)
	for i := range specs {
		s := host.Chetemi()
		s.Name = fmt.Sprintf("soak-node%d", i)
		s.Cores = 8 // 19200 MHz of Eq. 7 capacity per node
		specs[i] = s
	}
	cfg := soakConfig(o.Seed)
	if o.Quiet {
		cfg.CallBudgetUs = 0
	}
	cl, err := cluster.New(specs, cluster.Config{
		Controller:    cfg,
		FailThreshold: 2,
		StepWorkers:   1, // serial stepping: the whole run replays from the seed
	})
	if err != nil {
		return ClusterResult{}, err
	}
	defer cl.Close()

	rng := rand.New(rand.NewSource(o.Seed))
	names := make([]string, o.VMs)
	tpls := []vm.Template{vm.Small(), vm.Small(), vm.Medium()}
	for i := range names {
		names[i] = fmt.Sprintf("cvm%d", i)
		tpl := tpls[rng.Intn(len(tpls))]
		srcs := make([]workload.Source, tpl.VCPUs)
		for j := range srcs {
			srcs[j] = &workload.Constant{Level: 0.2 + 0.6*rng.Float64()}
		}
		if _, err := cl.Deploy(names[i], tpl, srcs); err != nil {
			return ClusterResult{}, fmt.Errorf("chaos: deploying %s: %w", names[i], err)
		}
	}

	var res ClusterResult
	blackouts := make([]bool, o.Nodes)
	clearBlackouts := func() {
		for i, on := range blackouts {
			if on {
				cl.Nodes()[i].Machine.ClearFileFaults()
				blackouts[i] = false
			}
		}
	}
	anyBlackout := func() bool {
		for _, on := range blackouts {
			if on {
				return true
			}
		}
		return false
	}

	for step := 0; step < o.Steps; step++ {
		if step%o.EpochSteps == 0 {
			clearBlackouts()
			if !o.Quiet && rng.Float64() < 0.4 {
				i := rng.Intn(o.Nodes)
				cl.Nodes()[i].Machine.FailReads("machine-", errBlackout, -1)
				blackouts[i] = true
				res.Blackouts++
			}
			// A batch of random moves, some inevitably targeting the
			// blacked-out node or the VM's own node (the no-op contract).
			for k := 0; k < 1+rng.Intn(3); k++ {
				if err := randomMigrate(cl, rng, names, &res, step); err != nil {
					return res, err
				}
			}
			if rng.Float64() < 0.3 {
				// Rebalance under fire: stranded moves are reported, not
				// fatal — the sweep itself must keep the bookkeeping sound.
				if _, err := cl.Rebalance(); err != nil && !anyBlackout() {
					return res, fmt.Errorf("chaos: step %d: rebalance on a healthy cluster: %w", step, err)
				}
			}
			res.Epochs++
			logf("chaos: cluster epoch %d at step %d: blackout=%v migrations=%+v",
				res.Epochs, step, anyBlackout(), cl.MigrationStats())
		}
		if err := clusterSoakStep(cl, names, &res, blackouts, step); err != nil {
			return res, err
		}
	}

	// Recovery: every blackout lifted, the cluster must reach a fully
	// healthy step — no failed nodes, no degradation, no stranded VMs,
	// every breaker closed — within the breaker drain plus a margin.
	clearBlackouts()
	budget := cfg.BreakerOpenSteps + cfg.RecoverySteps + 30
	recovered := false
	for step := 0; step < budget; step++ {
		if err := clusterSoakStep(cl, names, &res, make([]bool, o.Nodes), o.Steps+step); err != nil {
			return res, err
		}
		h := cl.Health()
		if h.FailedNodes == 0 && h.DegradedVCPUs == 0 && h.Faults == 0 &&
			h.OpenVMs == 0 && h.HalfOpenVMs == 0 && h.StrandedVMs == 0 {
			res.RecoveredIn = step + 1
			recovered = true
			break
		}
	}
	if !recovered {
		return res, fmt.Errorf("chaos: cluster not fully healthy within %d steps of clearing blackouts: %+v",
			budget, cl.Health())
	}
	stats := cl.MigrationStats()
	res.Attempted, res.Committed = stats.Attempted, stats.Committed
	res.RolledBack, res.StateCarried = stats.RolledBack, stats.StateCarried
	res.Evacuations = cl.Evacuations()
	logf("chaos: %s", res.String())
	return res, nil
}

// randomMigrate attempts one randomized migration and asserts the
// credit wallet is conserved whenever the cluster reports the state was
// carried. Legitimate rejections (infeasible target, a blackout
// breaking the prepare) are counted, not fatal; what must never happen
// is a lost VM, which clusterSoakStep's location sweep would catch.
func randomMigrate(cl *cluster.Cluster, rng *rand.Rand, names []string, res *ClusterResult, step int) error {
	name := names[rng.Intn(len(names))]
	target := rng.Intn(len(cl.Nodes()))
	src := cl.Locate(name)
	if src < 0 {
		return fmt.Errorf("chaos: step %d: %s has no location", step, name)
	}
	var pre int64 = -1
	if st := cl.Nodes()[src].Ctrl.VM(name); st != nil {
		pre = st.CreditUs
	}
	carried := cl.MigrationStats().StateCarried
	moved, err := cl.Migrate(name, target)
	if err != nil {
		res.MigrateRejected++
		if cl.Locate(name) != src {
			return fmt.Errorf("chaos: step %d: failed migration moved %s: %v", step, name, err)
		}
		return nil
	}
	if moved && pre >= 0 && cl.MigrationStats().StateCarried == carried+1 {
		got := cl.Nodes()[target].Ctrl.VM(name)
		if got == nil {
			return fmt.Errorf("chaos: step %d: state-carried %s not tracked on target %d", step, name, target)
		}
		if got.CreditUs != pre {
			return fmt.Errorf("chaos: step %d: credit not conserved across %s→%d: %d, want %d",
				step, name, target, got.CreditUs, pre)
		}
	}
	return nil
}

// clusterSoakStep advances the cluster one period and asserts the
// standing invariants: every VM located exactly where its node's
// manager and controller think it is, wallets non-negative, caps
// bounded, per-node Σcaps within capacity, and the migration counters
// mutually consistent.
func clusterSoakStep(cl *cluster.Cluster, names []string, res *ClusterResult, blackouts []bool, step int) error {
	blackout := false
	for _, on := range blackouts {
		if on {
			blackout = true
		}
	}
	migBefore := cl.Migrations()
	if err := cl.Step(); err != nil {
		if !blackout {
			return fmt.Errorf("chaos: step %d failed without a blackout armed: %w", step, err)
		}
		res.StepErrors++
	}
	// An evacuation commits migrations inside Step, after the target
	// controllers already ran their distribute stage — the adopted caps
	// are only re-bounded on the NEXT step.
	evacuatedThisStep := cl.Migrations() > migBefore
	res.Steps++
	res.StrandedSteps += cl.Health().StrandedVMs

	// No VM is ever lost or double-placed: each one is located on a
	// node whose manager holds it.
	for _, name := range names {
		idx := cl.Locate(name)
		if idx < 0 {
			return fmt.Errorf("chaos: step %d: VM %s lost (no location)", step, name)
		}
		if cl.Nodes()[idx].Manager.Get(name) == nil {
			return fmt.Errorf("chaos: step %d: VM %s located on node %d but not provisioned there", step, name, idx)
		}
	}
	for i, n := range cl.Nodes() {
		var sum int64
		settled := !blackouts[i] && !evacuatedThisStep
		for _, st := range n.Ctrl.VMs() {
			// A controller only tracks VMs its own node hosts: migration
			// must forget on the source and adopt on the target, never
			// leave a stale twin behind.
			if cl.Locate(st.Info.Name) != i {
				return fmt.Errorf("chaos: step %d: node %d controller tracks %s, located on node %d",
					step, i, st.Info.Name, cl.Locate(st.Info.Name))
			}
			if st.CreditUs < 0 {
				return fmt.Errorf("chaos: step %d: %s credit %d is negative", step, st.Info.Name, st.CreditUs)
			}
			if st.Breaker.State != core.BreakerClosed {
				settled = false
			}
			for _, v := range st.VCPUs {
				if v.CapUs < 0 || v.CapUs > soakPeriodUs {
					return fmt.Errorf("chaos: step %d: %s/vcpu%d cap %d outside [0, period]",
						step, st.Info.Name, v.Index, v.CapUs)
				}
				sum += v.CapUs
			}
		}
		// Σcaps ≤ capacity only holds once this node's distribute stage
		// has re-bounded every cap: a blacked-out node cannot run the
		// stage, and a quarantined VM keeps caps frozen — possibly
		// allocated against the SOURCE node's capacity if it was just
		// adopted. A fully healthy node must always be within bounds.
		if settled && sum > n.Ctrl.CapacityUs() {
			return fmt.Errorf("chaos: step %d: node %d Σcaps %d exceeds capacity %d",
				step, i, sum, n.Ctrl.CapacityUs())
		}
	}
	if stats := cl.MigrationStats(); stats.Committed+stats.RolledBack > stats.Attempted {
		return fmt.Errorf("chaos: step %d: inconsistent migration stats %+v", step, stats)
	}
	return nil
}
