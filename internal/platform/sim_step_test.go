package platform_test

import (
	"errors"
	"fmt"
	"testing"

	"vfreq/internal/core"
	"vfreq/internal/host"
	"vfreq/internal/platform"
	"vfreq/internal/raceflag"
	"vfreq/internal/vm"
	"vfreq/internal/workload"
)

// tableIINode boots a chetemi carrying the paper's Table II mix, every
// vCPU busy (20 small and 10 large VMs, 80 vCPUs), with a controller
// over platform.Sim that has stepped warm periods.
func tableIINode(tb testing.TB, warm int) (*host.Machine, *platform.Sim, *core.Controller) {
	tb.Helper()
	m, err := host.New(host.Chetemi())
	if err != nil {
		tb.Fatal(err)
	}
	mgr, err := vm.NewManager(m)
	if err != nil {
		tb.Fatal(err)
	}
	for _, c := range []struct {
		prefix string
		tpl    vm.Template
		count  int
	}{{"small", vm.Small(), 20}, {"large", vm.Large(), 10}} {
		for i := 0; i < c.count; i++ {
			srcs := make([]workload.Source, c.tpl.VCPUs)
			for j := range srcs {
				srcs[j] = workload.Busy()
			}
			if _, err := mgr.Provision(fmt.Sprintf("%s-%02d", c.prefix, i), c.tpl, srcs); err != nil {
				tb.Fatal(err)
			}
		}
	}
	cfg := core.DefaultConfig()
	sim := platform.NewSim(mgr)
	ctrl, err := core.New(sim, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < warm; i++ {
		m.Advance(cfg.PeriodUs)
		if err := ctrl.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	return m, sim, ctrl
}

// TestSimStepZeroAlloc: once warm, a controller period over the simulated
// host — every read and quota write Step makes through platform.Sim —
// allocates nothing.
func TestSimStepZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m, _, ctrl := tableIINode(t, 20)
	periodUs := core.DefaultConfig().PeriodUs
	if allocs := testing.AllocsPerRun(10, func() {
		m.Advance(periodUs)
		if err := ctrl.Step(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a warm Sim period (Advance + Step) allocates %.1f/op, want 0", allocs)
	}
}

// TestSimWriteAllocs pins the cost of a simulated quota write: SetMax and
// ClearMax set the vCPU cgroup's quota and allocate nothing.
func TestSimWriteAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m, err := host.New(host.Chetemi())
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := vm.NewManager(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Provision("web", vm.Small(), []workload.Source{workload.Busy(), workload.Busy()}); err != nil {
		t.Fatal(err)
	}
	sim := platform.NewSim(mgr)
	quota := int64(20_000)
	for _, w := range []struct {
		name  string
		write func() error
	}{
		{"SetMax", func() error { quota ^= 5000; return sim.SetMax("web", 1, quota, 100_000) }},
		{"ClearMax", func() error { return sim.ClearMax("web", 1) }},
	} {
		if err := w.write(); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := w.write(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s allocates %.1f/op, want 0", w.name, allocs)
		}
	}
}

// TestSimReadAllocs pins the cost of a simulated read: while no fault is
// armed a read builds no path and allocates nothing; while a persistent
// fault is armed on a substring no path contains, a read allocates at
// most its path.
func TestSimReadAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m, sim, _ := tableIINode(t, 2)
	vms, err := sim.ListVMs()
	if err != nil {
		t.Fatal(err)
	}
	name := vms[len(vms)-1].Name
	tid, err := sim.ThreadID(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	core, err := sim.LastCPU(tid)
	if err != nil {
		t.Fatal(err)
	}
	reads := []struct {
		name string
		read func() error
	}{
		{"ListVMs", func() error { _, err := sim.ListVMs(); return err }},
		{"UsageUs", func() error { _, err := sim.UsageUs(name, 1); return err }},
		{"ThreadID", func() error { _, err := sim.ThreadID(name, 1); return err }},
		{"LastCPU", func() error { _, err := sim.LastCPU(tid); return err }},
		{"CoreFreqMHz", func() error { _, err := sim.CoreFreqMHz(core); return err }},
		{"ReadMax", func() error { _, _, err := sim.ReadMax(name, 1); return err }},
	}
	for _, armed := range []bool{false, true} {
		limit := 0.0
		if armed {
			m.FailReads("no path holds this", errors.New("never drawn"), -1)
			limit = 1
		}
		for _, r := range reads {
			if err := r.read(); err != nil {
				t.Fatal(err)
			}
			if allocs := testing.AllocsPerRun(100, func() {
				if err := r.read(); err != nil {
					t.Fatal(err)
				}
			}); allocs > limit {
				t.Errorf("%s allocates %.1f/op with a fault armed: %v, want at most %.0f", r.name, allocs, armed, limit)
			}
		}
	}
}

// BenchmarkSimStep is Controller.Step alone over platform.Sim on the
// Table II node: the monitor stage's reads plus the five stages behind
// them. Advance runs with the timer stopped.
func BenchmarkSimStep(b *testing.B) {
	m, _, ctrl := tableIINode(b, 20)
	periodUs := core.DefaultConfig().PeriodUs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m.Advance(periodUs)
		b.StartTimer()
		if err := ctrl.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimReads times each Host read of the monitor stage on its own,
// one call per iteration over platform.Sim on the warm Table II node,
// cycling through its 80 vCPUs, and then MonitorChain: the monitor's four
// reads of one vCPU in its order (UsageUs, ThreadID, LastCPU of that tid,
// CoreFreqMHz of that core) per iteration, over the same 80 vCPUs.
func BenchmarkSimReads(b *testing.B) {
	_, sim, _ := tableIINode(b, 20)
	vms, err := sim.ListVMs()
	if err != nil {
		b.Fatal(err)
	}
	type vcpu struct {
		vm              string
		j, tid, lastCPU int
	}
	var vcpus []vcpu
	for _, v := range vms {
		for j := 0; j < v.VCPUs; j++ {
			tid, err := sim.ThreadID(v.Name, j)
			if err != nil {
				b.Fatal(err)
			}
			cpu, err := sim.LastCPU(tid)
			if err != nil {
				b.Fatal(err)
			}
			vcpus = append(vcpus, vcpu{v.Name, j, tid, cpu})
		}
	}
	for _, r := range []struct {
		name string
		read func(v *vcpu) error
	}{
		{"ListVMs", func(*vcpu) error { _, err := sim.ListVMs(); return err }},
		{"UsageUs", func(v *vcpu) error { _, err := sim.UsageUs(v.vm, v.j); return err }},
		{"ThreadID", func(v *vcpu) error { _, err := sim.ThreadID(v.vm, v.j); return err }},
		{"LastCPU", func(v *vcpu) error { _, err := sim.LastCPU(v.tid); return err }},
		{"CoreFreqMHz", func(v *vcpu) error { _, err := sim.CoreFreqMHz(v.lastCPU); return err }},
		{"MonitorChain", func(v *vcpu) error {
			if _, err := sim.UsageUs(v.vm, v.j); err != nil {
				return err
			}
			tid, err := sim.ThreadID(v.vm, v.j)
			if err != nil {
				return err
			}
			core, err := sim.LastCPU(tid)
			if err != nil {
				return err
			}
			_, err = sim.CoreFreqMHz(core)
			return err
		}},
	} {
		b.Run(r.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := r.read(&vcpus[i%len(vcpus)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
