package chaos

import (
	"errors"
	"fmt"
	"math/rand"

	"vfreq/internal/cluster"
	"vfreq/internal/host"
	"vfreq/internal/vm"
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
	Attempted, Committed, StateCarried int
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
	return fmt.Sprintf("cluster soak: %d steps / %d epochs, %d blackouts, %d step errors, migrations %d/%d/%d (attempted/committed/state-carried, %d rejected), %d evacuations, %d stranded steps, recovered in %d steps",
		r.Steps, r.Epochs, r.Blackouts, r.StepErrors,
		r.Attempted, r.Committed, r.StateCarried, r.MigrateRejected,
		r.Evacuations, r.StrandedSteps, r.RecoveredIn)
}

// errBlackout is the injected node failure.
var errBlackout = errors.New("chaos: node blackout")

// ClusterSoak runs the cluster migration soak and returns its summary;
// any invariant violation aborts the run with an error naming the step.
func ClusterSoak(o ClusterOptions) (ClusterResult, error) {
	o.Steps, o.Nodes, o.VMs = option(o.Steps, 500, 0), option(o.Nodes, 3, 8), option(o.VMs, 6, 16)
	o.EpochSteps = option(o.EpochSteps, 25, 0)
	logf := logger(o.Logf)

	specs := make([]host.Spec, o.Nodes)
	for i := range specs {
		s := host.Chetemi()
		s.Name = fmt.Sprintf("soak-node%d", i)
		s.Cores = 8 // 19200 MHz of Eq. 7 capacity per node
		specs[i] = s
	}
	cfg := soakConfig(o.Quiet)
	cl, err := cluster.New(specs, cluster.Config{Controller: cfg, FailThreshold: 2})
	if err != nil {
		return ClusterResult{}, err
	}
	defer cl.Close()

	rng := rand.New(rand.NewSource(o.Seed))
	names := make([]string, o.VMs)
	for i := range names {
		names[i] = fmt.Sprintf("cvm%d", i)
		tpl, srcs := randomVM(rng, vm.Small(), vm.Small(), vm.Medium())
		if _, err := cl.Deploy(names[i], tpl, srcs); err != nil {
			return ClusterResult{}, fmt.Errorf("chaos: deploying %s: %w", names[i], err)
		}
	}

	var res ClusterResult
	blackout := -1 // the blacked-out node, at most one per epoch
	clearBlackout := func() {
		if blackout >= 0 {
			cl.Nodes()[blackout].Machine.ClearFileFaults()
			blackout = -1
		}
	}

	for step := 0; step < o.Steps; step++ {
		if step%o.EpochSteps == 0 {
			clearBlackout()
			if !o.Quiet && rng.Float64() < 0.4 {
				blackout = rng.Intn(o.Nodes)
				cl.Nodes()[blackout].Machine.FailReads("machine-", errBlackout, -1)
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
				if _, err := cl.Rebalance(); err != nil && blackout < 0 {
					return res, fmt.Errorf("chaos: step %d: rebalance on a healthy cluster: %w", step, err)
				}
			}
			res.Epochs++
			logf("chaos: cluster epoch %d at step %d: blackout=%v migrations=%+v",
				res.Epochs, step, blackout >= 0, cl.MigrationStats())
		}
		if err := clusterSoakStep(cl, names, &res, blackout >= 0, step); err != nil {
			return res, err
		}
	}

	// Recovery: the blackout lifted, the cluster must reach a fully
	// healthy step — no failed nodes, no degradation, no stranded VMs,
	// every breaker closed — within the breaker drain plus a margin.
	clearBlackout()
	budget := recoveryBudget(cfg)
	recovered := false
	for step := 0; step < budget; step++ {
		if err := clusterSoakStep(cl, names, &res, false, o.Steps+step); err != nil {
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
	res.Attempted, res.Committed, res.StateCarried = stats.Attempted, stats.Committed, stats.StateCarried
	res.Evacuations = cl.Evacuations()
	logf("chaos: %s", res.String())
	return res, nil
}

// randomMigrate attempts one randomized migration. Legitimate
// rejections (infeasible target, a blackout breaking the prepare) are
// counted, not fatal; what must never happen is a failed migration that
// moved the VM anyway, or a lost VM, which clusterSoakStep's ledger
// catches.
func randomMigrate(cl *cluster.Cluster, rng *rand.Rand, names []string, res *ClusterResult, step int) error {
	name := names[rng.Intn(len(names))]
	target := rng.Intn(len(cl.Nodes()))
	src := cl.Locate(name)
	if _, err := cl.Migrate(name, target); err != nil {
		res.MigrateRejected++
		if cl.Locate(name) != src {
			return fmt.Errorf("chaos: step %d: failed migration moved %s: %v", step, name, err)
		}
	}
	return nil
}

// clusterSoakStep advances the cluster one period, then checks the
// placement ledger — every VM held by exactly one node's manager, which
// Locate names, each controller tracking only VMs its node holds, the
// migration counters mutually consistent — and every node controller's
// invariants (core.Controller.Check).
func clusterSoakStep(cl *cluster.Cluster, names []string, res *ClusterResult, blackout bool, step int) error {
	if err := cl.Step(); err != nil {
		if !blackout {
			return fmt.Errorf("chaos: step %d failed without a blackout armed: %w", step, err)
		}
		res.StepErrors++
	}
	res.Steps++
	res.StrandedSteps += cl.Health().StrandedVMs

	// No VM is ever lost or double-placed: exactly one node's manager
	// holds each one, and Locate names that node.
	for _, name := range names {
		holders, at := 0, -1
		for i, n := range cl.Nodes() {
			if n.Manager.Get(name) != nil {
				holders, at = holders+1, i
			}
		}
		if holders != 1 {
			return fmt.Errorf("chaos: step %d: VM %s held by %d nodes, want 1", step, name, holders)
		}
		if idx := cl.Locate(name); idx != at {
			return fmt.Errorf("chaos: step %d: VM %s held by node %d, located on node %d", step, name, at, idx)
		}
	}
	for i, n := range cl.Nodes() {
		// A controller only tracks VMs its own node hosts: migration must
		// forget on the source and adopt on the target, never leave a
		// stale twin behind.
		for _, st := range n.Ctrl.VMs() {
			if cl.Locate(st.Info.Name) != i {
				return fmt.Errorf("chaos: step %d: node %d controller tracks %s, located on node %d",
					step, i, st.Info.Name, cl.Locate(st.Info.Name))
			}
		}
		if err := n.Ctrl.Check(); err != nil {
			return fmt.Errorf("chaos: step %d: node %d: %w", step, i, err)
		}
	}
	if stats := cl.MigrationStats(); stats.Committed > stats.Attempted {
		return fmt.Errorf("chaos: step %d: inconsistent migration stats %+v", step, stats)
	}
	return nil
}
