package host

import (
	"errors"
	"fmt"
	"testing"

	"vfreq/internal/cgroupfs"
	"vfreq/internal/energy"
	"vfreq/internal/memfs"
	"vfreq/internal/procfs"
	"vfreq/internal/sysfs"
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
	if _, err := m.Cgroups.CreateGroup("vm"); err != nil {
		t.Fatal(err)
	}
	th, err := m.StartThread("vm", "CPU 0/KVM", nil)
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
	// /proc and cgroupfs views agree.
	stat, err := m.FS.ReadFile(fmt.Sprintf("/proc/%d/stat", th.ID))
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := procfs.ParseStatLastCPUBytes([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	if cpu != th.LastCPU {
		t.Fatalf("stat cpu %d != LastCPU %d", cpu, th.LastCPU)
	}
	content, _ := m.FS.ReadFile(cgroupfs.DefaultMount + "/vm/cpu.stat")
	usage, err := cgroupfs.ParseCPUStatBytes([]byte(content), "usage_usec")
	if err != nil || usage != 1_000_000 {
		t.Fatalf("cgroup usage = %d, %v", usage, err)
	}
	if err := m.StopThread(th); err != nil {
		t.Fatal(err)
	}
	if _, err := m.FS.ReadFile(fmt.Sprintf("/proc/%d", th.ID)); !errors.Is(err, memfs.ErrNotExist) {
		t.Fatal("proc entry survived StopThread")
	}
}

func TestStartThreadUnknownCgroup(t *testing.T) {
	m, _ := New(Chetemi())
	if _, err := m.StartThread("nope", "x", nil); err == nil {
		t.Fatal("unknown cgroup accepted")
	}
}

func TestDVFSRespondsToLoad(t *testing.T) {
	m, _ := New(Chiclet())
	for i := 0; i < m.Spec().Cores; i++ {
		if _, err := m.StartThread("", "burn", nil); err != nil {
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
		if _, err := m.StartThread("", "mixed", func(nowUs, dtUs int64) float64 { return share }); err != nil {
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

func TestSysfsFrequencyVisible(t *testing.T) {
	m, _ := New(Chetemi())
	if _, err := m.StartThread("", "burn", nil); err != nil {
		t.Fatal(err)
	}
	m.Advance(200_000)
	content, err := m.FS.ReadFile(sysfs.CurFreqPath(sysfs.Mount, 0))
	if err != nil {
		t.Fatal(err)
	}
	khz, err := sysfs.ParseKHzBytes([]byte(content))
	if err != nil {
		t.Fatal(err)
	}
	if khz < m.Spec().MinMHz*1000 || khz > m.Spec().TurboMHz*1000 {
		t.Fatalf("scaling_cur_freq = %d kHz outside envelope", khz)
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
