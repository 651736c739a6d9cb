package sched

import (
	"fmt"
	"testing"

	"vfreq/internal/raceflag"
)

// benchTick measures one scheduler tick for a given topology.
func benchTick(b *testing.B, vms, vcpusPer int, quota int64) {
	b.Helper()
	s := New(64)
	for i := 0; i < vms; i++ {
		g := s.NewGroup(nil, fmt.Sprintf("vm%d", i))
		if quota > 0 {
			if err := g.SetQuota(quota, DefaultPeriodUs); err != nil {
				b.Fatal(err)
			}
		}
		for j := 0; j < vcpusPer; j++ {
			s.NewThread(g, nil)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Tick(10_000)
	}
}

func BenchmarkTick10VMs(b *testing.B)  { benchTick(b, 10, 2, 0) }
func BenchmarkTick50VMs(b *testing.B)  { benchTick(b, 50, 4, 0) }
func BenchmarkTick200VMs(b *testing.B) { benchTick(b, 200, 4, 0) }

func BenchmarkTickQuota50VMs(b *testing.B) { benchTick(b, 50, 4, 25_000) }

func BenchmarkWaterfill(b *testing.B) {
	tmpl := make([]entity, 128)
	got := make([]int64, len(tmpl))
	for i := range tmpl {
		tmpl[i] = entity{need: int64(i%13)*1000 + 500, dst: &got[i]}
	}
	ents := make([]entity, len(tmpl))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(ents, tmpl) // waterfill compacts its argument in place
		waterfill(ents, 200_000)
	}
}

// tableIINode builds the cgroup tree vm.Manager gives a chetemi node that
// carries the paper's Table II mix: under machine.slice, 20 two-vCPU and
// 10 four-vCPU VM scopes, each vCPU a busy thread alone in a quota'd leaf
// group (the quotas sum to 44 of the 40 cores, so the waterfill contends
// and the windows throttle), plus a 0.5 % emulator thread in its own leaf.
func tableIINode() *Scheduler {
	s := New(40)
	slice := s.NewGroup(nil, "machine.slice")
	busy := func(nowUs, dtUs int64) float64 { return 1 }
	emulator := func(nowUs, dtUs int64) float64 { return 0.005 }
	for i := 0; i < 30; i++ {
		vcpus, quota := 2, int64(45_000)
		if i >= 20 {
			vcpus, quota = 4, 65_000
		}
		scope := s.NewGroup(slice, fmt.Sprintf("vm%d.scope", i))
		for j := 0; j < vcpus; j++ {
			g := s.NewGroup(scope, fmt.Sprintf("vcpu%d", j))
			if err := g.SetQuota(quota, DefaultPeriodUs); err != nil {
				panic(err)
			}
			s.NewThread(g, busy)
		}
		s.NewThread(s.NewGroup(scope, "emulator"), emulator)
	}
	return s
}

// TestTickZeroAlloc gates the hot path: once the scratch has grown, a
// tick of the Table II shape — throttling, window rolls and all — does
// not allocate.
func TestTickZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := tableIINode()
	for i := 0; i < 30; i++ {
		s.Tick(10_000)
	}
	if allocs := testing.AllocsPerRun(200, func() { s.Tick(10_000) }); allocs != 0 {
		t.Fatalf("steady-state Tick allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkTickTableII is one tick of the shape the repository benchmark
// steps 100 times per node-period; the BenchmarkTick* shapes above have
// no emulator threads and no per-vCPU leaf groups.
func BenchmarkTickTableII(b *testing.B) {
	s := tableIINode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Tick(10_000)
	}
}

// BenchmarkTickTableIIQuotaWrite is the same tick behind a quota write (one
// of three values in turn): beside BenchmarkTickTableII, where the previous
// tick answers seven allocations in ten, this is what a tick costs when a
// quota moves before every tick and allocate runs each time. previous/op
// is the share of ticks whose allocation the previous tick still answered.
func BenchmarkTickTableIIQuotaWrite(b *testing.B) {
	s := tableIINode()
	vcpu := s.Root().Children[0].Children[0].Children[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := vcpu.SetQuota(45_000-int64(i%3)*10_000, DefaultPeriodUs); err != nil {
			b.Fatal(err)
		}
		s.Tick(10_000)
	}
	b.ReportMetric(float64(s.replay.prevGot)/float64(b.N), "previous/op")
}

func BenchmarkDeepHierarchy(b *testing.B) {
	s := New(16)
	g := s.Root()
	for d := 0; d < 8; d++ {
		g = s.NewGroup(g, fmt.Sprintf("d%d", d))
		s.NewThread(g, nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Tick(10_000)
	}
}
