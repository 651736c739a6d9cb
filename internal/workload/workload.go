// Package workload provides synthetic CPU workload generators for VM
// vCPUs, including stand-ins for the two Phoronix benchmarks the paper
// evaluates with (compress-7zip and openssl).
//
// Work is accounted in cycles: a thread that runs x microseconds on a core
// clocked at f MHz completes x·f cycles. A workload's attained rate
// (cycles per microsecond) is therefore its effective frequency in MHz —
// the paper's "virtual frequency" — and benchmark scores are proportional
// to it.
package workload

// Source produces CPU demand for one thread and receives work accounting.
type Source interface {
	// Demand returns the fraction of the next dtUs the thread wants to
	// run, in [0, 1].
	Demand(nowUs, dtUs int64) float64
	// Account records that the thread ran for ranUs at freqMHz.
	Account(nowUs, ranUs, freqMHz int64)
}

// Constant demands a fixed fraction of CPU time forever.
type Constant struct {
	Level float64
	// CyclesDone accumulates attained work.
	CyclesDone int64
}

// Demand implements Source.
func (c *Constant) Demand(nowUs, dtUs int64) float64 { return c.Level }

// Account implements Source.
func (c *Constant) Account(nowUs, ranUs, freqMHz int64) { c.CyclesDone += ranUs * freqMHz }

// Idle returns a source that never wants to run.
func Idle() *Constant { return &Constant{Level: 0} }

// Busy returns a source that always wants a full core.
func Busy() *Constant { return &Constant{Level: 1} }

// Bursty alternates between High demand for Duty·Period and Low demand for
// the rest of each period.
type Bursty struct {
	PeriodUs   int64
	Duty       float64 // fraction of the period at High
	High, Low  float64
	PhaseUs    int64 // offset into the cycle at t=0
	CyclesDone int64
}

// Demand implements Source.
func (b *Bursty) Demand(nowUs, dtUs int64) float64 {
	if b.PeriodUs <= 0 {
		return b.Low
	}
	pos := (nowUs + b.PhaseUs) % b.PeriodUs
	if float64(pos) < b.Duty*float64(b.PeriodUs) {
		return b.High
	}
	return b.Low
}

// Account implements Source.
func (b *Bursty) Account(nowUs, ranUs, freqMHz int64) { b.CyclesDone += ranUs * freqMHz }

// Trace replays a fixed demand series with a given sample step, holding
// the last sample forever.
type Trace struct {
	Samples    []float64
	StepUs     int64
	CyclesDone int64
}

// Demand implements Source.
func (t *Trace) Demand(nowUs, dtUs int64) float64 {
	if len(t.Samples) == 0 || t.StepUs <= 0 {
		return 0
	}
	i := int(nowUs / t.StepUs)
	if i >= len(t.Samples) {
		i = len(t.Samples) - 1
	}
	return t.Samples[i]
}

// Account implements Source.
func (t *Trace) Account(nowUs, ranUs, freqMHz int64) { t.CyclesDone += ranUs * freqMHz }

// Delayed wraps a source so it stays idle until StartUs.
type Delayed struct {
	StartUs int64
	Inner   Source
}

// Demand implements Source.
func (d *Delayed) Demand(nowUs, dtUs int64) float64 {
	if nowUs < d.StartUs {
		return 0
	}
	return d.Inner.Demand(nowUs-d.StartUs, dtUs)
}

// Account implements Source.
func (d *Delayed) Account(nowUs, ranUs, freqMHz int64) {
	if nowUs < d.StartUs {
		return
	}
	d.Inner.Account(nowUs-d.StartUs, ranUs, freqMHz)
}
