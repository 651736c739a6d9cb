// Package host models a physical IaaS node: logical CPU cores with DVFS,
// a CFS-like scheduler with its cgroup hierarchy, and a power meter. It
// is the simulated stand-in for the Grid'5000 nodes the paper experiments
// on; the presets Chetemi and Chiclet reproduce their specs
// (Table IV of the paper) using logical CPUs, the only interpretation
// under which the paper's workloads satisfy its own Eq. 7.
package host

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"vfreq/internal/cgroupfs"
	"vfreq/internal/dvfs"
	"vfreq/internal/energy"
	"vfreq/internal/sched"
)

// DefaultTickUs is the scheduler tick the machine advances by (10 ms).
const DefaultTickUs = int64(10_000)

// Spec describes a node's hardware.
type Spec struct {
	Name      string
	CPU       string // model string, informational
	Cores     int    // logical CPUs
	MinMHz    int64
	MaxMHz    int64 // sustained all-core maximum (the paper's F_MAX)
	TurboMHz  int64
	JitterMHz int64
	MemoryGB  int
	Governor  string
	Power     energy.PowerModel
	// NUMANodes is the number of NUMA nodes the cores split into
	// (contiguous equal blocks, the dual-socket layout of the paper's
	// Grid'5000 nodes). 0 means 1: a single node.
	NUMANodes int

	// CachePenalty models last-level-cache contention, the effect the
	// paper's §V names as future work: at full machine utilisation,
	// co-located threads lose this fraction of their per-cycle
	// throughput (0 disables the model). A thread running x µs on a
	// core at f MHz then completes x·f·(1 − CachePenalty·u²) cycles,
	// where u is the machine utilisation — CPU-time guarantees still
	// hold, but cycle throughput degrades, which is exactly why
	// cache-aware priorities are needed beyond cgroup quotas.
	CachePenalty float64
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if s.Cores <= 0 {
		return fmt.Errorf("host: %q has no cores", s.Name)
	}
	if s.MaxMHz <= 0 || s.MinMHz <= 0 || s.MinMHz > s.MaxMHz {
		return fmt.Errorf("host: %q has invalid frequency envelope", s.Name)
	}
	if s.MemoryGB <= 0 {
		return fmt.Errorf("host: %q has no memory", s.Name)
	}
	if s.CachePenalty < 0 || s.CachePenalty >= 1 {
		return fmt.Errorf("host: %q has cache penalty %g outside [0, 1)", s.Name, s.CachePenalty)
	}
	if s.NUMANodes < 0 {
		return fmt.Errorf("host: %q has negative NUMA node count %d", s.Name, s.NUMANodes)
	}
	return s.Power.Validate()
}

// CoreNodes maps each logical CPU to its NUMA node, laid out as the kernel
// lists /sys/devices/system/node: NUMANodes contiguous equal blocks of
// cores (0 meaning 1, more than Cores meaning Cores), the remainder of an
// uneven split on the last node.
func (s Spec) CoreNodes() []int {
	nodes := min(max(s.NUMANodes, 1), s.Cores)
	per := s.Cores / nodes
	out := make([]int, s.Cores)
	for c := range out {
		out[c] = min(c/per, nodes-1)
	}
	return out
}

// Chetemi returns the spec of the Grid'5000 chetemi node: 2× Intel Xeon
// E5-2630 v4 (10 cores / 20 threads each), 2.4 GHz, 256 GB RAM.
func Chetemi() Spec {
	return Spec{
		Name:      "chetemi",
		CPU:       "2x Intel Xeon E5-2630 v4",
		Cores:     40, // 2 sockets × 10 cores × 2 HT
		MinMHz:    1200,
		MaxMHz:    2400,
		TurboMHz:  3100,
		JitterMHz: 16, // paper: avg variance 16 MHz on exec A
		MemoryGB:  256,
		Governor:  dvfs.GovernorSchedutil,
		Power:     energy.PowerModel{IdleWatts: 97, MaxWatts: 220, Alpha: 1, Gamma: 2, MaxMHz: 2400},
		NUMANodes: 2, // one per socket
	}
}

// Chiclet returns the spec of the Grid'5000 chiclet node: 2× AMD EPYC
// 7301 (16 cores / 32 threads each), 2.4 GHz, 128 GB RAM.
func Chiclet() Spec {
	return Spec{
		Name:      "chiclet",
		CPU:       "2x AMD EPYC 7301",
		Cores:     64, // 2 sockets × 16 cores × 2 SMT
		MinMHz:    1200,
		MaxMHz:    2400,
		TurboMHz:  2700,
		JitterMHz: 88, // paper: avg variance 88 MHz on exec A
		MemoryGB:  128,
		Governor:  dvfs.GovernorSchedutil,
		Power:     energy.PowerModel{IdleWatts: 110, MaxWatts: 190, Alpha: 1, Gamma: 2, MaxMHz: 2400},
		NUMANodes: 2, // one per socket
	}
}

// Machine is a running simulated node.
type Machine struct {
	spec    Spec
	Sched   *sched.Scheduler
	Cgroups *cgroupfs.Tree
	DVFS    *dvfs.Model
	Meter   *energy.Meter

	TickUs int64

	util []float64 // scratch buffer for governor updates

	// memo holds, per jitter phase a repeated window started at, what that
	// window did (repeat). evaluated and lookedUp count the repeated windows
	// accounted tick by tick and those looked up; only the tests read them.
	memo                [dvfs.Phases]*windowRecord
	evaluated, lookedUp int

	faultMu sync.Mutex
	faults  []*pathFault
	// armed is len(faults), stored under faultMu and loaded without it:
	// a read while no fault is armed, every read of a fault-free run,
	// takes no lock in ReadFault.
	armed atomic.Int32
}

// pathFault is one armed pseudo-file read fault (see FailReads).
type pathFault struct {
	substr string
	err    error
	count  int // remaining injections; <0 = persistent
}

// New boots a machine from a spec.
func New(spec Spec) (*Machine, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s := sched.New(spec.Cores)
	model, err := dvfs.New(spec.Cores, spec.Governor, dvfs.Policy{
		MinMHz: spec.MinMHz, MaxMHz: spec.MaxMHz,
		TurboMHz: spec.TurboMHz, JitterMHz: spec.JitterMHz,
	})
	if err != nil {
		return nil, err
	}
	meter, err := energy.NewMeter(spec.Power)
	if err != nil {
		return nil, err
	}
	return &Machine{
		spec:    spec,
		Sched:   s,
		Cgroups: cgroupfs.New(s),
		DVFS:    model,
		Meter:   meter,
		TickUs:  DefaultTickUs,
		util:    make([]float64, spec.Cores),
	}, nil
}

// ReadFault is the check a simulated read of the pseudo-file at path makes
// before it looks anything up: it returns the error of the first armed
// fault whose substring path contains (see FailReads), spending one of
// its injections, or nil. Writes never fault.
func (m *Machine) ReadFault(path string) error {
	if m.armed.Load() == 0 {
		return nil
	}
	m.faultMu.Lock()
	defer m.faultMu.Unlock()
	for i, f := range m.faults {
		if !strings.Contains(path, f.substr) {
			continue
		}
		if f.count > 0 {
			f.count--
			if f.count == 0 {
				m.faults = append(m.faults[:i], m.faults[i+1:]...)
				m.armed.Store(int32(len(m.faults)))
			}
		}
		return fmt.Errorf("host: read %s: %w", path, f.err)
	}
	return nil
}

// FailReads arms a pseudo-file fault: the next count reads of any path
// containing substr fail with err (count < 0 makes the fault persistent
// until ClearFileFaults). This models the /proc and cgroup read races a
// real host exhibits when vCPU threads die or cgroups vanish mid-access.
//
// FailReads and ClearFileFaults may be called from any goroutine, also
// while another reads: a read that starts after either returns sees its
// effect. Faults match in the order they were armed. While none is armed,
// a read pays one atomic load for the check, not a lock.
func (m *Machine) FailReads(substr string, err error, count int) {
	if count == 0 || err == nil {
		return
	}
	m.faultMu.Lock()
	defer m.faultMu.Unlock()
	m.faults = append(m.faults, &pathFault{substr: substr, err: err, count: count})
	m.armed.Store(int32(len(m.faults)))
}

// ClearFileFaults disarms every pseudo-file fault.
func (m *Machine) ClearFileFaults() {
	m.faultMu.Lock()
	defer m.faultMu.Unlock()
	m.faults = nil
	m.armed.Store(0)
}

// Spec returns the machine's hardware description.
func (m *Machine) Spec() Spec { return m.spec }

// NowUs returns the simulated time.
func (m *Machine) NowUs() int64 { return m.Sched.NowUs() }

// StartThread creates a runnable thread in the cgroup at rel (relative to
// the cgroup mount; "" is the root).
func (m *Machine) StartThread(rel string, demand func(nowUs, dtUs int64) float64) (*sched.Thread, error) {
	g, err := m.Cgroups.Group(rel)
	if err != nil {
		return nil, err
	}
	return m.Sched.NewThread(g, demand), nil
}

// StopThread removes a thread from scheduling.
func (m *Machine) StopThread(th *sched.Thread) { m.Sched.RemoveThread(th) }

// Step advances the machine by exactly one scheduler tick.
func (m *Machine) Step() {
	now, slow := m.Sched.NowUs(), m.slowdown()
	m.account(now, m.Sched.Tick(m.TickUs), slow)
}

// Advance runs the machine for the given duration (rounded up to whole
// ticks). At each window boundary with a whole window left it asks the
// scheduler to repeat the window that ended there (sched.Repeat), and
// accounts every tick of what was repeated as Step would have, in order;
// Step is the one-tick twin of this loop.
func (m *Machine) Advance(durationUs int64) {
	for elapsed := int64(0); elapsed < durationUs; {
		if n := m.Sched.Repeat(m.TickUs, (durationUs-elapsed)/sched.DefaultPeriodUs); n > 0 {
			m.repeat(n)
			elapsed += n * sched.DefaultPeriodUs
			continue
		}
		m.Step()
		elapsed += m.TickUs
	}
}

// repeat accounts the ticks of the windows Sched.Repeat just skipped, from
// the allocations its ring recorded. A repeated window is a function of
// the ring's outputs, the tick length, the state it starts in and the
// governor's jitter phase, so the first window of each key is accounted
// tick by tick and recorded (evaluate), and every later one is looked up:
// its ticks' powers added to the meter in order, the governor set to where
// the window left it, and its cycle growth counted, to be added to each
// thread once, at the end of the call.
func (m *Machine) repeat(windows int64) {
	threads := m.Sched.RepeatedThreads()
	now := m.Sched.NowUs() - windows*sched.DefaultPeriodUs
	for ; windows > 0; windows-- {
		step := m.DVFS.Step()
		phase := step % dvfs.Phases
		if rec := m.memo[phase]; !m.matches(rec) {
			m.evaluate(phase, now, threads)
		} else {
			for _, w := range rec.watts {
				m.Meter.AddWatts(w, m.TickUs)
			}
			m.DVFS.Restore(rec.end, step+int64(len(rec.watts)))
			rec.hits++
			m.lookedUp++
		}
		now += sched.DefaultPeriodUs
	}
	for _, rec := range m.memo {
		if rec == nil || rec.hits == 0 {
			continue
		}
		for i, t := range threads {
			t.Cycles += rec.hits * rec.cycles[i]
		}
		rec.hits = 0
	}
}

// windowRecord is what one repeated window did, under the key it did it
// for. The jitter phase it starts at is the record's index in the memo.
type windowRecord struct {
	// The key besides the phase. gen stands for the ring's outputs: every
	// tick's allocations, placement and core loads (Sched.RepeatGen).
	gen       uint64
	tickUs    int64
	startSlow float64 // the cache slowdown of the first tick: the utilisation before it
	start     []int64 // the core frequencies before the first tick

	end    []int64   // the core frequencies after the last tick
	watts  []float64 // the power of each tick, in tick order
	cycles []int64   // each ring thread's cycle growth, in RepeatedThreads order
	hits   int64     // windows looked up in this call, whose growth is not added yet
}

// matches reports whether rec holds the window about to be repeated at its
// phase. The start frequencies and slowdown are implied by the rest: a
// window boundary where Sched.Repeat succeeds follows tick n−1 of a ring
// whose outputs stand (RepeatGen), and the governor's Update after it set
// the frequencies from that tick's loads and the phase. They are compared
// all the same, so that a write to DVFS between calls cannot go unseen.
func (m *Machine) matches(rec *windowRecord) bool {
	if rec == nil || rec.gen != m.Sched.RepeatGen() || rec.tickUs != m.TickUs || rec.startSlow != m.slowdown() {
		return false
	}
	for c, f := range rec.start {
		if m.DVFS.FreqMHz(c) != f {
			return false
		}
	}
	return true
}

// evaluate accounts the window about to be repeated tick by tick, from the
// ring, and records it at its phase: exact-size slices, allocated the first
// time the phase is reached and again only when a size moves. The record
// it overwrites has no hits pending: within one repeat every key compares
// as it did at the phase's first window, so a record that was looked up
// is not evaluated again before repeat adds its growth.
func (m *Machine) evaluate(phase, now int64, threads []*sched.Thread) {
	rec := m.memo[phase]
	if rec == nil {
		cores := m.DVFS.Cores()
		rec = &windowRecord{start: make([]int64, 0, cores), end: make([]int64, 0, cores)}
		m.memo[phase] = rec
	}
	ticks := int(sched.DefaultPeriodUs / m.TickUs)
	if len(rec.watts) != ticks {
		rec.watts = make([]float64, ticks)
	}
	if len(rec.cycles) != len(threads) {
		rec.cycles = make([]int64, len(threads))
	}
	rec.gen, rec.tickUs, rec.startSlow = m.Sched.RepeatGen(), m.TickUs, m.slowdown()
	rec.start = m.DVFS.AppendFreqsMHz(rec.start[:0])
	for i, t := range threads {
		rec.cycles[i] = -t.Cycles
	}
	for k := range rec.watts {
		slow := m.slowdown()
		rec.watts[k] = m.account(now, m.Sched.RepeatedTick(k), slow)
		now += m.TickUs
	}
	for i, t := range threads {
		rec.cycles[i] += t.Cycles
	}
	rec.end = m.DVFS.AppendFreqsMHz(rec.end[:0])
	m.evaluated++
}

// slowdown is the cache-contention factor of the next tick: per-cycle
// throughput scaled by the previous tick's machine utilisation (the
// contention the threads will meet).
func (m *Machine) slowdown() float64 {
	if m.spec.CachePenalty <= 0 {
		return 1
	}
	u := m.Sched.Utilization()
	return 1 - m.spec.CachePenalty*u*u
}

// account books one tick that started at now: each thread's cycles at the
// frequency its core ran (the governor output lags by one tick, as
// hardware DVFS does), then the meter and the governor. It returns the
// power the meter booked the tick at.
func (m *Machine) account(now int64, allocs []sched.Alloc, slow float64) float64 {
	for _, a := range allocs {
		eff := int64(float64(m.DVFS.FreqMHz(a.Core)) * slow)
		a.Thread.Cycles += a.RanUs * eff
		if a.Thread.OnRun != nil {
			a.Thread.OnRun(now, a.RanUs, eff)
		}
	}
	// One pass over the cores yields what Sched.CoreUtilization,
	// Sched.Utilization and DVFS.MeanMHz would each loop for, by the same
	// expressions.
	tick := m.TickUs
	var busyUs, sumMHz int64
	for c := range m.util {
		l := m.Sched.CoreLoadUs(c)
		busyUs += l
		sumMHz += m.DVFS.FreqMHz(c)
		m.util[c] = float64(l) / float64(tick)
	}
	cores := int64(len(m.util))
	w := m.Meter.Observe(float64(busyUs)/float64(tick*cores), float64(sumMHz)/float64(cores), tick)
	m.DVFS.Update(m.util)
	return w
}
