package energy

import (
	"math"
	"testing"
	"testing/quick"
)

func model() PowerModel {
	return PowerModel{IdleWatts: 100, MaxWatts: 250, Alpha: 1, Gamma: 1, MaxMHz: 2400}
}

func TestValidate(t *testing.T) {
	cases := []PowerModel{
		{IdleWatts: -1, MaxWatts: 10, Alpha: 1, Gamma: 1, MaxMHz: 100},
		{IdleWatts: 50, MaxWatts: 10, Alpha: 1, Gamma: 1, MaxMHz: 100},
		{IdleWatts: 1, MaxWatts: 10, Alpha: 0, Gamma: 1, MaxMHz: 100},
		{IdleWatts: 1, MaxWatts: 10, Alpha: 1, Gamma: -1, MaxMHz: 100},
		{IdleWatts: 1, MaxWatts: 10, Alpha: 1, Gamma: 1, MaxMHz: 0},
	}
	for i, m := range cases {
		if err := m.Validate(); err == nil {
			t.Fatalf("case %d: invalid model accepted", i)
		}
	}
	if err := model().Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
}

func TestPowerEndpoints(t *testing.T) {
	m := model()
	if p := m.Power(0, 2400); p != 100 {
		t.Fatalf("idle power = %g, want 100", p)
	}
	if p := m.Power(1, 2400); p != 250 {
		t.Fatalf("max power = %g, want 250", p)
	}
	if p := m.Power(0.5, 2400); p != 175 {
		t.Fatalf("half-load linear power = %g, want 175", p)
	}
}

func TestPowerClamps(t *testing.T) {
	m := model()
	if p := m.Power(-0.5, 2400); p != 100 {
		t.Fatalf("negative util power = %g, want 100", p)
	}
	if p := m.Power(2, 5000); p != 250 {
		t.Fatalf("overload power = %g, want 250", p)
	}
}

func TestFrequencyTerm(t *testing.T) {
	m := model()
	m.Gamma = 2
	got := m.Power(1, 1200)
	want := 100 + 150*0.25 // (1200/2400)^2 = 0.25
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("quadratic freq power = %g, want %g", got, want)
	}
}

func TestMeterIntegration(t *testing.T) {
	mt, err := NewMeter(model())
	if err != nil {
		t.Fatal(err)
	}
	// 1 s at full load: 250 J.
	for i := 0; i < 100; i++ {
		mt.Observe(1, 2400, 10_000)
	}
	if math.Abs(mt.Joules()-250) > 1e-6 {
		t.Fatalf("Joules = %g, want 250", mt.Joules())
	}
}

func TestNewMeterRejectsInvalid(t *testing.T) {
	if _, err := NewMeter(PowerModel{}); err == nil {
		t.Fatal("invalid model accepted")
	}
}

// Property: power is monotone in utilisation and bounded by the envelope.
func TestQuickPowerMonotoneBounded(t *testing.T) {
	m := PowerModel{IdleWatts: 80, MaxWatts: 300, Alpha: 1.2, Gamma: 2, MaxMHz: 3000}
	f := func(u1, u2 uint16, fr uint16) bool {
		a := float64(u1) / 65535
		b := float64(u2) / 65535
		if a > b {
			a, b = b, a
		}
		freq := float64(fr%3000) + 1
		pa, pb := m.Power(a, freq), m.Power(b, freq)
		return pa <= pb+1e-9 && pa >= m.IdleWatts-1e-9 && pb <= m.MaxWatts+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
