// Package workload provides synthetic CPU workload generators for VM
// vCPUs, including stand-ins for the two Phoronix benchmarks the paper
// evaluates with (compress-7zip and openssl).
//
// Work is accounted in cycles: a thread that runs x microseconds on a core
// clocked at f MHz completes x·f cycles. A workload's attained rate
// (cycles per microsecond) is therefore its effective frequency in MHz —
// the paper's "virtual frequency" — and benchmark scores are proportional
// to it. The host keeps each thread's cycles; a source that needs to know
// them implements Accounter.
package workload

import "math"

// Forever is the horizon of a level that never changes.
const Forever = int64(math.MaxInt64)

// Source produces CPU demand for one thread.
type Source interface {
	// Demand returns the fraction of the next dtUs the thread wants to
	// run, in [0, 1].
	Demand(nowUs, dtUs int64) float64
	// Until returns how long the level holds: Demand(t, dt) equals
	// Demand(nowUs, dt) for every t in [nowUs, Until(nowUs)). A horizon
	// may end early, never late: nowUs promises nothing, Forever that the
	// level never changes.
	Until(nowUs int64) int64
}

// Accounter is the optional capability of a Source whose demand follows
// the work its thread attains, such as a benchmark worker that idles at
// a barrier once its share of a run is done.
type Accounter interface {
	// Account records that the thread ran for ranUs at freqMHz.
	Account(nowUs, ranUs, freqMHz int64)
}

// Constant demands a fixed fraction of CPU time forever.
type Constant struct {
	Level float64
}

// Demand implements Source.
func (c *Constant) Demand(nowUs, dtUs int64) float64 { return c.Level }

// Until implements Source.
func (c *Constant) Until(nowUs int64) int64 { return Forever }

// Idle returns a source that never wants to run.
func Idle() *Constant { return &Constant{Level: 0} }

// Busy returns a source that always wants a full core.
func Busy() *Constant { return &Constant{Level: 1} }

// Bursty alternates between High demand for Duty·Period and Low demand for
// the rest of each period.
type Bursty struct {
	PeriodUs  int64
	Duty      float64 // fraction of the period at High
	High, Low float64
	PhaseUs   int64 // offset into the cycle at t=0
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

// Until implements Source: the end of the current High or Low stretch.
func (b *Bursty) Until(nowUs int64) int64 {
	if b.PeriodUs <= 0 {
		return Forever
	}
	pos := (nowUs + b.PhaseUs) % b.PeriodUs
	// Demand is High for the positions below ceil(Duty·Period).
	high := int64(math.Ceil(b.Duty * float64(b.PeriodUs)))
	if pos < high {
		return nowUs + high - pos
	}
	return nowUs + b.PeriodUs - pos
}

// Trace replays a fixed demand series with a given sample step, holding
// the last sample forever.
type Trace struct {
	Samples []float64
	StepUs  int64
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

// Until implements Source: the next sample boundary, none after the last.
func (t *Trace) Until(nowUs int64) int64 {
	if len(t.Samples) == 0 || t.StepUs <= 0 {
		return Forever
	}
	i := nowUs / t.StepUs
	if i >= int64(len(t.Samples))-1 {
		return Forever
	}
	return (i + 1) * t.StepUs
}

// Delayed wraps a source so it stays idle until StartUs. It is no
// Accounter: a Bench, which is, takes its own start time.
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

// Until implements Source.
func (d *Delayed) Until(nowUs int64) int64 {
	if nowUs < d.StartUs {
		return d.StartUs
	}
	u := d.Inner.Until(nowUs - d.StartUs)
	if d.StartUs > 0 && u > Forever-d.StartUs { // shifted, it would overflow
		return Forever
	}
	return u + d.StartUs
}
