package workload

import "fmt"

// Bench models a multi-threaded benchmark executed inside a VM, in the
// style of the Phoronix suites the paper uses. The benchmark performs a
// fixed number of runs; within a run every worker thread must complete a
// fixed amount of work (cycles), and threads that finish early wait at a
// synchronisation barrier with near-zero demand. Between runs the
// benchmark idles briefly (the "synchronisation" dips visible in the
// paper's frequency plots).
type Bench struct {
	name                  string
	startUs               int64
	threads               int
	cyclesPerThreadPerRun int64
	runs                  int
	dipUs                 int64
	waitDemand            float64

	started   bool
	runIdx    int
	runStart  int64
	dipUntil  int64
	remaining []int64
	results   []RunResult
}

// RunResult records one completed benchmark run.
type RunResult struct {
	Run        int   // 0-based run index
	StartUs    int64 // when the run's work began
	EndUs      int64 // when the last thread finished
	CyclesEach int64 // work per thread
}

// DurationUs returns the wallclock length of the run.
func (r RunResult) DurationUs() int64 { return r.EndUs - r.StartUs }

// RateMHz returns the run's effective per-thread frequency: cycles per
// microsecond, i.e. MHz. This is the "compression efficiency" metric of
// the paper's Figs. 10/11/14 up to a constant factor.
func (r RunResult) RateMHz() float64 {
	d := r.DurationUs()
	if d <= 0 {
		return 0
	}
	return float64(r.CyclesEach) / float64(d)
}

// NewCompress7zip builds a compress-7zip-like benchmark: threads worker
// threads, runs iterations of cyclesPerThreadPerRun cycles each, separated
// by a 2 s synchronisation dip. The workload begins at startUs.
func NewCompress7zip(threads int, cyclesPerThreadPerRun int64, runs int, startUs int64) (*Bench, error) {
	return NewBench("compress-7zip", threads, cyclesPerThreadPerRun, runs, startUs, 2_000_000)
}

// NewOpenSSL builds an openssl-like benchmark: steady full-CPU signing
// work with no synchronisation dips, completing after runs × cycles work.
func NewOpenSSL(threads int, cyclesPerThreadPerRun int64, runs int, startUs int64) (*Bench, error) {
	return NewBench("openssl", threads, cyclesPerThreadPerRun, runs, startUs, 0)
}

// NewBench builds a benchmark with an explicit inter-run dip duration,
// for callers that scale whole experiments (the dip must scale with the
// run length to preserve the workload's duty cycle).
func NewBench(name string, threads int, cyclesPerThreadPerRun int64, runs int, startUs, dipUs int64) (*Bench, error) {
	return newBench(name, threads, cyclesPerThreadPerRun, runs, startUs, dipUs)
}

func newBench(name string, threads int, cycles int64, runs int, startUs, dipUs int64) (*Bench, error) {
	if threads <= 0 {
		return nil, fmt.Errorf("workload: %s needs at least one thread", name)
	}
	if cycles <= 0 || runs <= 0 {
		return nil, fmt.Errorf("workload: %s needs positive work (cycles=%d runs=%d)", name, cycles, runs)
	}
	if startUs < 0 || dipUs < 0 {
		return nil, fmt.Errorf("workload: %s has negative timing", name)
	}
	return &Bench{
		name:                  name,
		startUs:               startUs,
		threads:               threads,
		cyclesPerThreadPerRun: cycles,
		runs:                  runs,
		dipUs:                 dipUs,
		waitDemand:            0.02,
		remaining:             make([]int64, threads),
	}, nil
}

// Name returns the benchmark name.
func (b *Bench) Name() string { return b.name }

// Done reports whether all runs completed.
func (b *Bench) Done() bool { return b.runIdx >= b.runs }

// Results returns the completed runs.
func (b *Bench) Results() []RunResult { return b.results }

// Threads returns the worker count.
func (b *Bench) Threads() int { return b.threads }

// Thread returns worker i's source.
func (b *Bench) Thread(i int) *BenchThread {
	if i < 0 || i >= b.threads {
		panic(fmt.Sprintf("workload: thread index %d out of range", i))
	}
	return &BenchThread{b: b, idx: i}
}

// Sources returns one Source per worker thread.
func (b *Bench) Sources() []Source {
	out := make([]Source, b.threads)
	for i := range out {
		out[i] = b.Thread(i)
	}
	return out
}

func (b *Bench) startRun(nowUs int64) {
	b.runStart = nowUs
	for i := range b.remaining {
		b.remaining[i] = b.cyclesPerThreadPerRun
	}
}

// BenchThread is one worker of a Bench: a Source and an Accounter, whose
// demand follows the work it is told it did.
type BenchThread struct {
	b   *Bench
	idx int
}

// Demand implements Source.
func (t *BenchThread) Demand(nowUs, dtUs int64) float64 {
	b := t.b
	if nowUs < b.startUs || b.Done() {
		return 0
	}
	if !b.started {
		b.started = true
		b.startRun(nowUs)
	}
	if nowUs < b.dipUntil {
		return b.waitDemand
	}
	if b.remaining[t.idx] > 0 {
		return 1
	}
	return b.waitDemand // finished, waiting at the barrier
}

// Until implements Source. It promises nothing: the level moves when a
// run's work completes, which only Account learns.
func (t *BenchThread) Until(nowUs int64) int64 { return nowUs }

// Account implements Accounter.
func (t *BenchThread) Account(nowUs, ranUs, freqMHz int64) {
	b := t.b
	if !b.started || b.Done() || nowUs < b.dipUntil {
		return
	}
	if b.remaining[t.idx] <= 0 {
		return
	}
	b.remaining[t.idx] -= ranUs * freqMHz
	if b.remaining[t.idx] > 0 {
		return
	}
	// Barrier check: the run ends when the slowest thread finishes.
	for _, r := range b.remaining {
		if r > 0 {
			return
		}
	}
	end := nowUs + ranUs
	b.results = append(b.results, RunResult{
		Run:        b.runIdx,
		StartUs:    b.runStart,
		EndUs:      end,
		CyclesEach: b.cyclesPerThreadPerRun,
	})
	b.runIdx++
	if b.Done() {
		return
	}
	b.dipUntil = end + b.dipUs
	b.startRun(b.dipUntil)
}

// Running reports whether the benchmark has unfinished work and is not
// pausing at a synchronisation dip at the given instant — the periods in
// which a frequency shortfall counts as an SLA violation.
func (b *Bench) Running(nowUs int64) bool {
	return b.started && !b.Done() && nowUs >= b.dipUntil
}
