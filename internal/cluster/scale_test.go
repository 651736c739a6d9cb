package cluster

import (
	"fmt"
	"runtime"
	"testing"

	"vfreq/internal/host"
	"vfreq/internal/metrics"
	"vfreq/internal/placement"
	"vfreq/internal/raceflag"
	"vfreq/internal/vm"
)

// buildScaleCluster boots nodes 8-core sim machines and spreads
// vmsPerNode small VMs on each via WorstFit (which round-robins across
// equal nodes), then warms the cluster with a few steps so the scratch
// buffers, worker pool and per-host read buffers reach steady state.
func buildScaleCluster(tb testing.TB, nodes, vmsPerNode, workers, warmup int) *Cluster {
	tb.Helper()
	spec := host.Chetemi()
	spec.Cores = 8
	specs := make([]host.Spec, nodes)
	for i := range specs {
		specs[i] = spec
	}
	c, err := New(specs, Config{
		StepWorkers: workers,
		Algorithm:   placement.WorstFit,
	})
	if err != nil {
		tb.Fatal(err)
	}
	// Armed in every scale test and benchmark: the whole observability
	// layer — cluster gauges, the shared node-step histogram and every
	// node controller's stage histograms — must cost zero steady-state
	// allocations.
	c.ArmMetrics(metrics.NewRegistry())
	for i := 0; i < nodes*vmsPerNode; i++ {
		if _, err := c.Deploy(fmt.Sprintf("vm%05d", i), vm.Small(), busy(vm.Small().VCPUs)); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < warmup; i++ {
		if err := c.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

// TestClusterStepZeroAlloc is the cluster twin of core's
// TestStepZeroAlloc: once the deployment is stable, the whole cluster
// Step — node stepping through the sim pseudo-file stack, error join,
// Health aggregation and the failure pass — must not allocate.
func TestClusterStepZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			c := buildScaleCluster(t, 2, 4, workers, 8)
			defer c.Close()
			allocs := testing.AllocsPerRun(50, func() {
				if err := c.Step(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state cluster Step allocates %.1f/op, want 0", allocs)
			}
		})
	}
}

// BenchmarkClusterScale measures the cluster data plane at fleet sizes
// — {64, 256, 1024} nodes × 8 VMs each — stepped serially and on the
// full worker pool. The interesting numbers are ns/op scaling across
// sizes, the serial-vs-pool ratio on multi-core runners, and allocs/op,
// which must stay 0 at steady state.
func BenchmarkClusterScale(b *testing.B) {
	workerCounts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workerCounts = append(workerCounts, n) // the pool variant duplicates serial on 1 core
	}
	for _, nodes := range []int{64, 256, 1024} {
		for _, workers := range workerCounts {
			name := fmt.Sprintf("nodes=%d/workers=%d", nodes, workers)
			b.Run(name, func(b *testing.B) {
				c := buildScaleCluster(b, nodes, 8, workers, 8)
				defer c.Close()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := c.Step(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkDeploy measures admission cost at fleet scale: one WorstFit
// deploy+undeploy cycle against a 1024-node cluster carrying 8 VMs per
// node. Admission scans every node and sums each one's load from its
// Manager. PR 25 measured the trade on a 2-vCPU guest, alternating
// runs: ≈ 176–277 µs per cycle, against ≈ 34–49 µs with the deleted
// O(log N) free-capacity index; one BenchmarkClusterScale
// nodes=1024/workers=1 Step took ≈ 152–174 ms on either side, so the
// scan costs about one thousandth of a Step per admitted VM.
func BenchmarkDeploy(b *testing.B) {
	c := buildScaleCluster(b, 1024, 8, 1, 0)
	defer c.Close()
	tpl := vm.Small()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Deploy("probe", tpl, nil); err != nil {
			b.Fatal(err)
		}
		if err := c.Undeploy("probe"); err != nil {
			b.Fatal(err)
		}
	}
}
