// Package energy provides a node power model and an energy accumulator.
//
// The paper motivates virtual frequency capping with energy savings from
// shutting down unused nodes and from running CPUs efficiently. The model
// here is the standard linear-utilisation model extended with a frequency
// term:
//
//	P(u, f) = P_idle + (P_max − P_idle) · u^α · (f / f_max)^γ
//
// With α = 1, γ = 1 this degenerates to the widely used linear model; γ≈2
// approximates the quadratic voltage scaling of real CPUs.
package energy

import (
	"fmt"
	"math"
)

// PowerModel maps utilisation and frequency to electrical power.
type PowerModel struct {
	IdleWatts float64 // power at zero utilisation
	MaxWatts  float64 // power at full utilisation and max frequency
	Alpha     float64 // utilisation exponent (1 = linear)
	Gamma     float64 // frequency exponent (2 ≈ DVFS quadratic)
	MaxMHz    int64   // frequency at which MaxWatts is reached
}

// Validate checks model consistency.
func (m PowerModel) Validate() error {
	if m.IdleWatts < 0 || m.MaxWatts < m.IdleWatts {
		return fmt.Errorf("energy: invalid power range [%g, %g]", m.IdleWatts, m.MaxWatts)
	}
	if m.Alpha <= 0 || m.Gamma < 0 {
		return fmt.Errorf("energy: invalid exponents α=%g γ=%g", m.Alpha, m.Gamma)
	}
	if m.MaxMHz <= 0 {
		return fmt.Errorf("energy: MaxMHz must be positive")
	}
	return nil
}

// Power returns the instantaneous power draw in watts for machine-wide
// utilisation u in [0,1] at mean core frequency fMHz.
func (m PowerModel) Power(u float64, fMHz float64) float64 {
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	fr := fMHz / float64(m.MaxMHz)
	if fr < 0 {
		fr = 0
	}
	if fr > 1 {
		fr = 1
	}
	return m.IdleWatts + (m.MaxWatts-m.IdleWatts)*math.Pow(u, m.Alpha)*math.Pow(fr, m.Gamma)
}

// Meter integrates power over simulated time.
type Meter struct {
	model  PowerModel
	joules float64
}

// NewMeter returns a meter for the given model.
func NewMeter(model PowerModel) (*Meter, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	return &Meter{model: model}, nil
}

// Observe accounts dtUs microseconds at utilisation u and frequency fMHz,
// and returns the power it accounted them at.
func (m *Meter) Observe(u float64, fMHz float64, dtUs int64) float64 {
	w := m.model.Power(u, fMHz)
	m.AddWatts(w, dtUs)
	return w
}

// AddWatts accounts dtUs microseconds at w watts. Observe adds through it,
// so a power Observe returned, added again here, grows the sum by the same
// bits.
func (m *Meter) AddWatts(w float64, dtUs int64) {
	m.joules += w * float64(dtUs) / 1e6
}

// Joules returns the accumulated energy.
func (m *Meter) Joules() float64 { return m.joules }
