package dvfs

import (
	"testing"
	"testing/quick"
)

func policy() Policy {
	return Policy{MinMHz: 1200, MaxMHz: 2400, TurboMHz: 3100, JitterMHz: 0}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, GovernorSchedutil, policy()); err == nil {
		t.Fatal("zero cores accepted")
	}
	if _, err := New(4, "turbo-boost", policy()); err == nil {
		t.Fatal("unknown governor accepted")
	}
	bad := policy()
	bad.MaxMHz = 100
	if _, err := New(4, GovernorSchedutil, bad); err == nil {
		t.Fatal("inverted envelope accepted")
	}
	badTurbo := policy()
	badTurbo.TurboMHz = 2000
	if _, err := New(4, GovernorSchedutil, badTurbo); err == nil {
		t.Fatal("turbo below max accepted")
	}
}

func TestPerformanceGovernorPinned(t *testing.T) {
	m, err := New(2, GovernorPerformance, policy())
	if err != nil {
		t.Fatal(err)
	}
	if m.FreqMHz(0) != 2400 {
		t.Fatalf("idle performance freq = %d, want 2400", m.FreqMHz(0))
	}
	m.Update([]float64{0, 0})
	if m.FreqMHz(0) != 2400 || m.FreqMHz(1) != 2400 {
		t.Fatal("performance governor moved off max")
	}
}

func TestPowersavePinned(t *testing.T) {
	m, _ := New(1, GovernorPowersave, policy())
	m.Update([]float64{1})
	if m.FreqMHz(0) != 1200 {
		t.Fatalf("powersave freq = %d, want 1200", m.FreqMHz(0))
	}
}

func TestSchedutilTracksUtilisation(t *testing.T) {
	m, _ := New(1, GovernorSchedutil, policy())
	m.Update([]float64{0})
	if m.FreqMHz(0) != 1200 {
		t.Fatalf("idle freq = %d, want min 1200", m.FreqMHz(0))
	}
	m.Update([]float64{0.5})
	// 1.25 · 2400 · 0.5 = 1500
	if m.FreqMHz(0) != 1500 {
		t.Fatalf("50%% util freq = %d, want 1500", m.FreqMHz(0))
	}
	// Full load on a multi-core machine clamps to all-core max.
	m4, _ := New(4, GovernorSchedutil, policy())
	m4.Update([]float64{1, 1, 1, 1})
	for c := 0; c < 4; c++ {
		if m4.FreqMHz(c) != 2400 {
			t.Fatalf("core %d = %d, want 2400 (all-core max)", c, m4.FreqMHz(c))
		}
	}
}

func TestTurboSingleCore(t *testing.T) {
	m, _ := New(4, GovernorSchedutil, policy())
	m.Update([]float64{1, 0, 0, 0})
	if m.FreqMHz(0) != 3100 {
		t.Fatalf("lone busy core = %d, want turbo 3100", m.FreqMHz(0))
	}
	// With all cores busy, turbo must not engage.
	m.Update([]float64{1, 1, 1, 1})
	if m.FreqMHz(0) != 2400 {
		t.Fatalf("all-core busy = %d, want 2400", m.FreqMHz(0))
	}
}

func TestJitterBoundedAndNonZero(t *testing.T) {
	p := policy()
	p.JitterMHz = 40
	m, _ := New(8, GovernorSchedutil, p)
	util := make([]float64, 8)
	for i := range util {
		util[i] = 1
	}
	seen := map[int64]bool{}
	for i := 0; i < 16; i++ {
		m.Update(util)
		for c := 0; c < 8; c++ {
			f := m.FreqMHz(c)
			if f < 2400-40 || f > 2400 {
				t.Fatalf("jittered freq %d outside [2360, 2400]", f)
			}
			seen[f] = true
		}
	}
	if len(seen) < 2 {
		t.Fatal("jitter produced a constant frequency")
	}
	if v := m.VarianceMHz(); v <= 0 || v > 40*40 {
		t.Fatalf("variance %.1f outside (0, 1600]", v)
	}
}

func TestMeanAndVarianceNoJitter(t *testing.T) {
	m, _ := New(4, GovernorPerformance, policy())
	if m.MeanMHz() != 2400 {
		t.Fatalf("mean = %f, want 2400", m.MeanMHz())
	}
	if m.VarianceMHz() != 0 {
		t.Fatalf("variance = %f, want 0", m.VarianceMHz())
	}
}

func TestFreqKHzUnits(t *testing.T) {
	m, _ := New(1, GovernorPerformance, policy())
	if m.FreqKHz(0) != 2_400_000 {
		t.Fatalf("FreqKHz = %d, want 2400000", m.FreqKHz(0))
	}
}

// Property: for any utilisation vector the frequency stays inside
// [min, turbo] and is monotone in utilisation for schedutil.
func TestQuickEnvelope(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			raw = []uint8{0}
		}
		if len(raw) > 16 {
			raw = raw[:16]
		}
		p := Policy{MinMHz: 800, MaxMHz: 2000, TurboMHz: 2500, JitterMHz: 25}
		m, err := New(len(raw), GovernorSchedutil, p)
		if err != nil {
			return false
		}
		util := make([]float64, len(raw))
		for i, r := range raw {
			util[i] = float64(r) / 255
		}
		m.Update(util)
		for c := range util {
			f := m.FreqMHz(c)
			if f < p.MinMHz || f > p.TurboMHz {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOndemandGovernor(t *testing.T) {
	m, err := New(2, GovernorOndemand, policy())
	if err != nil {
		t.Fatal(err)
	}
	// Above 80% load: straight to all-core max.
	m.Update([]float64{0.9, 0.9})
	if m.FreqMHz(0) != 2400 {
		t.Fatalf("high-load ondemand = %d, want 2400", m.FreqMHz(0))
	}
	// Mid load: interpolated between min and max.
	m.Update([]float64{0.5, 0.5})
	f := m.FreqMHz(0)
	if f <= 1200 || f >= 2400 {
		t.Fatalf("mid-load ondemand = %d, want interpolated", f)
	}
}

func TestUpdatePanicsOnWrongLength(t *testing.T) {
	m, _ := New(2, GovernorSchedutil, policy())
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-length utilisation accepted")
		}
	}()
	m.Update([]float64{1})
}
