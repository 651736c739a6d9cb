package host

import (
	"slices"
	"testing"

	"vfreq/internal/energy"
	"vfreq/internal/sched"
)

func TestPresetsValid(t *testing.T) {
	for _, s := range []Spec{Chetemi(), Chiclet()} {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
	}
	if Chetemi().Cores != 40 || Chiclet().Cores != 64 {
		t.Fatal("preset logical core counts wrong")
	}
	if Chetemi().MaxMHz != 2400 || Chiclet().MaxMHz != 2400 {
		t.Fatal("preset F_MAX wrong")
	}
}

// TestSpecCoreNodes: the NUMA layout is contiguous equal blocks, the
// remainder of an uneven split on the last node, and a node count
// clamped to [1, cores].
func TestSpecCoreNodes(t *testing.T) {
	for _, c := range []struct {
		cores, nodes int
		want         []int
	}{
		{4, 2, []int{0, 0, 1, 1}},
		{5, 2, []int{0, 0, 1, 1, 1}},
		{7, 3, []int{0, 0, 1, 1, 2, 2, 2}},
		{3, 0, []int{0, 0, 0}},
		{3, 1, []int{0, 0, 0}},
		{3, 5, []int{0, 1, 2}},
		{1, 2, []int{0}},
	} {
		spec := Chetemi()
		spec.Cores, spec.NUMANodes = c.cores, c.nodes
		if got := spec.CoreNodes(); !slices.Equal(got, c.want) {
			t.Errorf("%d cores on %d nodes: CoreNodes = %v, want %v", c.cores, c.nodes, got, c.want)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	bad := Chetemi()
	bad.Cores = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero cores accepted")
	}
	bad = Chetemi()
	bad.MinMHz = 3000
	if err := bad.Validate(); err == nil {
		t.Fatal("min>max accepted")
	}
	bad = Chetemi()
	bad.MemoryGB = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("no memory accepted")
	}
}

func TestBootAndAdvance(t *testing.T) {
	m, err := New(Chetemi())
	if err != nil {
		t.Fatal(err)
	}
	m.Advance(1_000_000)
	if m.NowUs() != 1_000_000 {
		t.Fatalf("NowUs = %d, want 1000000", m.NowUs())
	}
	// Idle machine: cores near min frequency, power near idle.
	if f := m.DVFS.FreqMHz(0); f != m.Spec().MinMHz {
		t.Fatalf("idle core freq = %d, want %d", f, m.Spec().MinMHz)
	}
	j := m.Meter.Joules()
	if j < 90 || j > 110 { // ~97 W for 1 s
		t.Fatalf("idle energy = %.1f J, want ~97", j)
	}
}

func TestThreadLifecycleAndWork(t *testing.T) {
	m, err := New(Chetemi())
	if err != nil {
		t.Fatal(err)
	}
	g := m.Sched.NewGroup(nil, "vm")
	th, err := m.StartThread(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Advance(1_000_000)
	if th.UsageUs != 1_000_000 {
		t.Fatalf("usage = %d, want 1000000", th.UsageUs)
	}
	// Work is usage × frequency; after ramp-up the core should reach a
	// high operating point, so work must exceed the min-frequency
	// floor and stay under the turbo ceiling.
	minWork := int64(1_000_000) * m.Spec().MinMHz
	maxWork := int64(1_000_000) * m.Spec().TurboMHz
	if work := th.Cycles; work <= minWork || work > maxWork {
		t.Fatalf("work = %d, want in (%d, %d]", work, minWork, maxWork)
	}
	// The cgroup and the thread carry what cpu.stat and /proc/<tid>/stat
	// report.
	if g.UsageUs != 1_000_000 {
		t.Fatalf("cgroup usage = %d, want 1000000", g.UsageUs)
	}
	if th.LastCPU < 0 || th.LastCPU >= m.Spec().Cores {
		t.Fatalf("LastCPU = %d, want a core", th.LastCPU)
	}
	m.StopThread(th)
	if m.Sched.Thread(th.ID) != nil || th.Group != nil {
		t.Fatal("thread survived StopThread")
	}
}

// TestStartThreadUnknownCgroup: a cgroup removed, itself or with its
// parent, takes no thread.
func TestStartThreadUnknownCgroup(t *testing.T) {
	m, _ := New(Chetemi())
	g := m.Sched.NewGroup(nil, "vm")
	sub := m.Sched.NewGroup(g, "vcpu0")
	if err := m.Sched.RemoveGroup(g); err != nil {
		t.Fatal(err)
	}
	for _, gone := range []*sched.Group{g, sub} {
		if _, err := m.StartThread(gone, nil); err == nil {
			t.Fatalf("removed cgroup %s accepted", gone.Name)
		}
	}
}

func TestDVFSRespondsToLoad(t *testing.T) {
	m, _ := New(Chiclet())
	for i := 0; i < m.Spec().Cores; i++ {
		if _, err := m.StartThread(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	m.Advance(500_000)
	mean := m.DVFS.MeanMHz()
	if mean < float64(m.Spec().MaxMHz)-100 {
		t.Fatalf("loaded mean freq = %.0f, want ≈%d", mean, m.Spec().MaxMHz)
	}
	// Paper observation: under full load all cores run at about the
	// same speed; variance stays within the jitter amplitude squared.
	if v := m.DVFS.VarianceMHz(); v > float64(m.Spec().JitterMHz*m.Spec().JitterMHz) {
		t.Fatalf("frequency variance %.0f too large", v)
	}
	// Energy at full load approaches MaxWatts.
	perSec := m.Meter.Joules() / 0.5
	if perSec < 150 || perSec > float64(m.Spec().Power.MaxWatts) {
		t.Fatalf("full-load power = %.0f W, want near %g", perSec, m.Spec().Power.MaxWatts)
	}
}

// Step folds the per-core utilisation, the machine utilisation and the
// mean frequency into one loop; the energy it meters and the governor
// input it builds must equal, bit for bit, what the scheduler's and the
// DVFS model's own accessors report.
func TestStepMatchesAccessors(t *testing.T) {
	m, _ := New(Chetemi())
	for i := 0; i < 25; i++ {
		share := float64(i%5) / 4
		if _, err := m.StartThread(nil, func(nowUs, dtUs int64) float64 { return share }); err != nil {
			t.Fatal(err)
		}
	}
	twin, err := energy.NewMeter(m.Spec().Power)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 50; k++ {
		mean := m.DVFS.MeanMHz() // the frequencies the tick runs at
		m.Step()
		twin.Observe(m.Sched.Utilization(), mean, m.TickUs)
		if m.Meter.Joules() != twin.Joules() {
			t.Fatalf("tick %d: metered %v J, accessors give %v J", k, m.Meter.Joules(), twin.Joules())
		}
		for c := range m.util {
			if m.util[c] != m.Sched.CoreUtilization(c) {
				t.Fatalf("tick %d: core %d util %v, CoreUtilization %v", k, c, m.util[c], m.Sched.CoreUtilization(c))
			}
		}
	}
}

func TestAdvanceRoundsUpToTicks(t *testing.T) {
	m, err := New(Chetemi())
	if err != nil {
		t.Fatal(err)
	}
	m.Advance(25_000) // 2.5 ticks → 3 ticks
	if m.NowUs() != 30_000 {
		t.Fatalf("NowUs = %d, want 30000 (whole ticks)", m.NowUs())
	}
}

func TestCustomTick(t *testing.T) {
	m, err := New(Chetemi())
	if err != nil {
		t.Fatal(err)
	}
	m.TickUs = 50_000
	m.Advance(100_000)
	if m.NowUs() != 100_000 {
		t.Fatalf("NowUs = %d", m.NowUs())
	}
}

func TestSpecAccessor(t *testing.T) {
	m, err := New(Chiclet())
	if err != nil {
		t.Fatal(err)
	}
	if m.Spec().Name != "chiclet" || m.Spec().CPU == "" {
		t.Fatalf("Spec = %+v", m.Spec())
	}
}
