package chaos

import (
	"fmt"
	"testing"
)

// TestClusterMigrationSoak is the cluster counterpart of TestSoak:
// randomized migrations under randomized node blackouts,
// with every placement and controller-state invariant checked after
// each step. Fixed seeds keep the runs replayable; CHAOS_SEED and
// CHAOS_STEPS override for ad-hoc hunts. The 16-VM run fills the nodes
// so that admission binds: a Deploy or Migrate that skipped Eq. 7 would
// overload a node there, which the soak's admission check reports.
func TestClusterMigrationSoak(t *testing.T) {
	steps := soakSteps(t, 400)
	for _, tc := range []struct {
		seed int64
		vms  int
	}{{soakSeed(t, 4), 0}, {5, 0}, {6, 0}, {7, 16}} {
		tc := tc
		t.Run(fmt.Sprintf("seed%d", tc.seed), func(t *testing.T) {
			res, err := ClusterSoak(ClusterOptions{
				Seed:  tc.seed,
				Steps: steps,
				VMs:   tc.vms,
				Logf:  t.Logf,
			})
			if err != nil {
				t.Fatalf("invariant violated: %v\n%s", err, res)
			}
			if res.Blackouts == 0 {
				t.Fatalf("no blackouts injected — the soak tested nothing: %s", res)
			}
			if res.Committed == 0 {
				t.Fatalf("no migration committed — the soak tested nothing: %s", res)
			}
			if res.Committed > res.Attempted {
				t.Fatalf("migration ledger inconsistent: %s", res)
			}
			t.Logf("%s", res)
		})
	}
}

// The quiet control: with blackouts disabled, migration churn on a
// healthy cluster must be silent — no step errors, no stranded VMs, no
// faults to recover from.
func TestClusterMigrationSoakQuiet(t *testing.T) {
	res, err := ClusterSoak(ClusterOptions{Seed: 11, Steps: 200, Quiet: true, Logf: t.Logf})
	if err != nil {
		t.Fatalf("invariant violated on a healthy cluster: %v\n%s", err, res)
	}
	if res.Blackouts != 0 || res.StepErrors != 0 || res.StrandedSteps != 0 {
		t.Fatalf("quiet soak was not quiet: %s", res)
	}
	if res.Committed == 0 {
		t.Fatalf("no migration committed: %s", res)
	}
	if res.RecoveredIn != 1 {
		t.Fatalf("healthy cluster took %d steps to report healthy, want 1", res.RecoveredIn)
	}
}
