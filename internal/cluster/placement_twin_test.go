package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"vfreq/internal/host"
	"vfreq/internal/placement"
	"vfreq/internal/vm"
)

// linearChoose is the admission scan written out by hand, independent of
// placement.Choose, as the oracle for Cluster.choose: the non-failed
// fitting node with the least (BestFit) or most (WorstFit) remaining
// capacity, the lowest index on ties.
func linearChoose(c *Cluster, tpl vm.Template) int {
	chosen := -1
	for i, n := range c.nodes {
		if n.Failed || !c.fits(n, tpl) {
			continue
		}
		switch c.cfg.Algorithm {
		case placement.BestFit:
			if chosen == -1 || c.remaining(n) < c.remaining(c.nodes[chosen]) {
				chosen = i
			}
		case placement.WorstFit:
			if chosen == -1 || c.remaining(n) > c.remaining(c.nodes[chosen]) {
				chosen = i
			}
		}
	}
	return chosen
}

// linearBestTarget is the BestFit migration-target scan written out by
// hand, the oracle for Cluster.bestTarget (evacuation).
func linearBestTarget(c *Cluster, tpl vm.Template, exclude int) int {
	target := -1
	for j, t := range c.nodes {
		if j == exclude || t.Failed || !c.fits(t, tpl) {
			continue
		}
		if target == -1 || c.remaining(t) < c.remaining(c.nodes[target]) {
			target = j
		}
	}
	return target
}

var churnTemplates = []vm.Template{vm.Small(), vm.Medium(), vm.Large()}

// checkDecisions compares the cluster's decisions with the linear oracles
// for every query the cluster's current state could be asked: each
// template as an admission, and as a migration off each node (and off
// none). It first checks what admission guarantees, written out
// literally: on every node, Σ vCPU·F is within cores·F_MAX times the
// policy factor, the summed memory fits, and every VM's F ≤ F_MAX.
func checkDecisions(t *testing.T, c *Cluster, after string) {
	t.Helper()
	for i, n := range c.nodes {
		spec := n.Spec()
		var freq, mem int64
		for _, inst := range n.Manager.List() {
			tpl := inst.Template()
			if tpl.FreqMHz > spec.MaxMHz {
				t.Fatalf("after %s: node %d hosts %s at %d MHz > F_MAX %d", after, i, inst.Name(), tpl.FreqMHz, spec.MaxMHz)
			}
			freq += int64(tpl.VCPUs) * tpl.FreqMHz
			mem += int64(tpl.MemoryGB)
		}
		if limit := float64(int64(spec.Cores)*spec.MaxMHz) * c.cfg.Policy.Factor; float64(freq) > limit {
			t.Fatalf("after %s: node %d carries Σ vCPU·F = %d MHz > %.0f", after, i, freq, limit)
		}
		if mem > int64(spec.MemoryGB) {
			t.Fatalf("after %s: node %d carries %d GB > %d GB", after, i, mem, spec.MemoryGB)
		}
	}
	for _, tpl := range churnTemplates {
		if got, _ := c.choose(c.cfg.Algorithm, tpl, -1); got != linearChoose(c, tpl) {
			t.Fatalf("after %s: choose(%v) = %d, disagrees with the linear scan", after, tpl, got)
		}
		for ex := -1; ex < len(c.nodes); ex++ {
			if got, want := c.bestTarget(tpl, ex), linearBestTarget(c, tpl, ex); got != want {
				t.Fatalf("after %s: bestTarget(%v, %d) = %d, linear scan says %d", after, tpl, ex, got, want)
			}
		}
	}
}

// churn drives one seeded schedule of deploys, undeploys, resizes,
// migrations, node failures, recoveries and steps against a cluster.
// Every decision the schedule itself takes — each admission, and each
// migration target, which is the call evacuation makes per VM — is
// checked against the linear oracle before it is acted on; the
// decisions Step takes internally are covered by comparing every
// possible query on the state each operation leaves behind.
func churn(t *testing.T, c *Cluster, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var (
		names    []string
		nextID   int
		downErr  = errors.New("injected outage")
		downNode = -1
	)
	for op := 0; op < steps; op++ {
		var did string
		switch k := rng.Intn(12); {
		case k < 4: // deploy
			name := fmt.Sprintf("vm%04d", nextID)
			nextID++
			tpl := churnTemplates[rng.Intn(len(churnTemplates))]
			want := linearChoose(c, tpl)
			idx, err := c.Deploy(name, tpl, nil)
			if err == nil {
				names = append(names, name)
			}
			if idx != want {
				t.Fatalf("seed %d op %d: deploy %s landed on %d (err %v), linear scan says %d", seed, op, name, idx, err, want)
			}
			did = "deploy " + name
		case k < 5: // undeploy
			if len(names) == 0 {
				continue
			}
			i := rng.Intn(len(names))
			if err := c.Undeploy(names[i]); err == nil {
				names = append(names[:i], names[i+1:]...)
			}
			did = "undeploy"
		case k < 6: // resize
			if len(names) == 0 {
				continue
			}
			_ = c.Resize(names[rng.Intn(len(names))], churnTemplates[rng.Intn(len(churnTemplates))], nil)
			did = "resize"
		case k < 7: // fail a node / recover it
			if downNode == -1 {
				downNode = rng.Intn(len(c.nodes))
				c.nodes[downNode].Machine.FailReads("machine-", downErr, -1)
			} else {
				c.nodes[downNode].Machine.ClearFileFaults()
				downNode = -1
			}
			did = "fail/recover"
		case k < 8: // one evacuation decision: move a VM off its node
			if len(names) == 0 {
				continue
			}
			name := names[rng.Intn(len(names))]
			src := c.Locate(name)
			tpl := c.nodes[src].Manager.Get(name).Template()
			got, want := c.bestTarget(tpl, src), linearBestTarget(c, tpl, src)
			if got != want {
				t.Fatalf("seed %d op %d: bestTarget for %s off node %d = %d, linear scan says %d", seed, op, name, src, got, want)
			}
			if got != -1 {
				_, _ = c.Migrate(name, got)
			}
			did = "migrate " + name
		default: // step: exercises failure marking, evacuation, re-admission
			_ = c.Step()
			did = "step"
		}
		checkDecisions(t, c, fmt.Sprintf("seed %d op %d (%s)", seed, op, did))
	}
}

// TestPlacementTwinChurn proves the cluster's BestFit/WorstFit decisions
// identical to the hand-written scans across admission, migration,
// evacuation and node re-admission, over 100 seeded churn
// schedules (50 per algorithm) on one cluster.
func TestPlacementTwinChurn(t *testing.T) {
	for _, alg := range []placement.Algorithm{placement.BestFit, placement.WorstFit} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			// Cut down to 4 and 8 cores so that capacity binds: admissions
			// are refused and evacuations strand.
			small, big := host.Chetemi(), host.Chiclet()
			small.Cores, big.Cores = 4, 8
			specs := []host.Spec{small, big, small, big, small, big}
			for seed := int64(0); seed < 50; seed++ {
				c, err := New(specs, Config{Algorithm: alg, FailThreshold: 2, StepWorkers: 1})
				if err != nil {
					t.Fatal(err)
				}
				churn(t, c, seed, 30)
			}
		})
	}
}
