// Package dvfs models per-core dynamic voltage and frequency scaling
// (DVFS) governors, exposing the current frequency of each core the way
// the Linux cpufreq subsystem does through
// /sys/devices/system/cpu/cpuN/cpufreq/scaling_cur_freq.
//
// The paper's experiments observe that under load all cores of a node run
// at approximately the same frequency (variance of 16–150 MHz); the
// schedutil-like governor reproduces that: frequency follows utilisation
// with a small deterministic jitter so the estimate read by the controller
// has realistic noise.
package dvfs

import "fmt"

// Phases is the period of the governor's jitter: Update number s gives core
// c the phase (s + 7c) mod Phases, so the frequencies an Update sets are a
// function of its utilisation input and Step() mod Phases alone.
const Phases = 8

// Governor names mirror the Linux cpufreq governors that matter here.
const (
	GovernorPerformance = "performance"
	GovernorPowersave   = "powersave"
	GovernorSchedutil   = "schedutil"
	GovernorOndemand    = "ondemand"
)

// Policy describes the frequency envelope of a core.
type Policy struct {
	MinMHz int64 // lowest operating point
	MaxMHz int64 // sustained all-core maximum (the paper's F_MAX)
	// TurboMHz is the single-core opportunistic maximum. Zero means no
	// turbo; turbo engages when few cores are busy.
	TurboMHz int64
	// JitterMHz is the amplitude of the deterministic per-core
	// frequency jitter applied under load, reproducing the small
	// variance the paper reports. Zero disables jitter.
	JitterMHz int64
}

// Validate checks that the policy is self-consistent.
func (p Policy) Validate() error {
	if p.MinMHz <= 0 || p.MaxMHz < p.MinMHz {
		return fmt.Errorf("dvfs: invalid envelope [%d, %d] MHz", p.MinMHz, p.MaxMHz)
	}
	if p.TurboMHz != 0 && p.TurboMHz < p.MaxMHz {
		return fmt.Errorf("dvfs: turbo %d below max %d", p.TurboMHz, p.MaxMHz)
	}
	return nil
}

// Model tracks the frequency of every core of a machine.
type Model struct {
	policy   Policy
	governor string
	freqMHz  []int64
	step     int64
}

// New creates a frequency model for the given core count. All cores start
// at the governor's idle operating point.
func New(cores int, governor string, policy Policy) (*Model, error) {
	if cores <= 0 {
		return nil, fmt.Errorf("dvfs: cores must be positive")
	}
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	switch governor {
	case GovernorPerformance, GovernorPowersave, GovernorSchedutil, GovernorOndemand:
	default:
		return nil, fmt.Errorf("dvfs: unknown governor %q", governor)
	}
	m := &Model{policy: policy, governor: governor, freqMHz: make([]int64, cores)}
	for i := range m.freqMHz {
		m.freqMHz[i] = m.idleFreq()
	}
	return m, nil
}

func (m *Model) idleFreq() int64 {
	if m.governor == GovernorPerformance {
		return m.policy.MaxMHz
	}
	return m.policy.MinMHz
}

// FreqMHz returns the current frequency of core c in MHz.
func (m *Model) FreqMHz(c int) int64 { return m.freqMHz[c] }

// FreqKHz returns the current frequency of core c in kHz, the unit
// scaling_cur_freq uses.
func (m *Model) FreqKHz(c int) int64 { return m.freqMHz[c] * 1000 }

// Cores returns the number of cores.
func (m *Model) Cores() int { return len(m.freqMHz) }

// Step returns how many times Update has run.
func (m *Model) Step() int64 { return m.step }

// AppendFreqsMHz appends every core's frequency to dst, in core order.
func (m *Model) AppendFreqsMHz(dst []int64) []int64 { return append(dst, m.freqMHz...) }

// Restore puts the model in the state a run of Updates left it in: the
// frequency of every core, in core order, and the number of Updates.
func (m *Model) Restore(freqMHz []int64, step int64) {
	if len(freqMHz) != len(m.freqMHz) {
		panic("dvfs: frequency slice has wrong length")
	}
	copy(m.freqMHz, freqMHz)
	m.step = step
}

// Update recomputes each core's frequency from its utilisation over the
// last scheduling tick (values in [0,1]). It implements the selected
// governor and applies turbo and jitter.
func (m *Model) Update(coreUtil []float64) {
	if len(coreUtil) != len(m.freqMHz) {
		panic("dvfs: utilisation slice has wrong length")
	}
	m.step++
	busy := 0
	for _, u := range coreUtil {
		if u > 0.5 {
			busy++
		}
	}
	for c, u := range coreUtil {
		var f int64
		switch m.governor {
		case GovernorPerformance:
			f = m.policy.MaxMHz
		case GovernorPowersave:
			f = m.policy.MinMHz
		case GovernorSchedutil:
			// Linux schedutil: f = 1.25 · f_max · util, clamped.
			f = int64(1.25 * float64(m.policy.MaxMHz) * u)
		case GovernorOndemand:
			// Step up aggressively above 80 % load, decay otherwise.
			if u > 0.8 {
				f = m.policy.MaxMHz
			} else {
				f = m.policy.MinMHz +
					int64(float64(m.policy.MaxMHz-m.policy.MinMHz)*u)
			}
		}
		if f < m.policy.MinMHz {
			f = m.policy.MinMHz
		}
		max := m.policy.MaxMHz
		// Turbo: when at most a quarter of the cores are busy, busy
		// cores may exceed the all-core maximum.
		if m.policy.TurboMHz > max && busy*4 <= len(m.freqMHz) && u > 0.9 {
			max = m.policy.TurboMHz
			f = max
		}
		if f > max {
			f = max
		}
		if m.policy.JitterMHz > 0 && u > 0.05 && f > m.policy.MinMHz {
			// Deterministic triangle-wave jitter, phase-shifted
			// per core.
			phase := (m.step + int64(c)*7) % Phases
			j := m.policy.JitterMHz
			delta := (phase - 4) * j / 4
			f += delta
			if f > max {
				f = max
			}
			if f < m.policy.MinMHz {
				f = m.policy.MinMHz
			}
		}
		m.freqMHz[c] = f
	}
}

// MeanMHz returns the average core frequency.
func (m *Model) MeanMHz() float64 {
	var sum int64
	for _, f := range m.freqMHz {
		sum += f
	}
	return float64(sum) / float64(len(m.freqMHz))
}

// VarianceMHz returns the population variance of core frequencies, the
// statistic the paper reports (16–150 MHz depending on node and load).
func (m *Model) VarianceMHz() float64 {
	mean := m.MeanMHz()
	var acc float64
	for _, f := range m.freqMHz {
		d := float64(f) - mean
		acc += d * d
	}
	return acc / float64(len(m.freqMHz))
}
