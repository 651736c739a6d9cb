package host

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vfreq/internal/raceflag"
	"vfreq/internal/sched"
	"vfreq/internal/workload"
)

// Tests of the window repeat behind Advance (sched.Repeat, DESIGN.md §5,
// "Repeating a window"). Its contract is Step's: a machine that Advances
// ends every call bit-identical to a twin that Steps once per tick, in
// every cpu.stat counter, every thread's usage, last core and cycles,
// every core's frequency and the metered joules, compared with ==.
//
// The kill list: each of these one-line mutations of sched/repeat.go,
// sched/replay.go or host.go was applied and turned the named test red.
// Every row was applied again once Repeat compared the placement apart
// from the allocation state, and every one is still red. The rows on the
// ring's records were applied again once the ring stopped answering ticks
// and every tick recorded its slot, and every row once the ring stopped
// recording the core a thread enters a tick on.
//
//	drop QuotaUs from carried                  TestAdvanceRepeatKey/QuotaUs
//	drop PeriodUs from carried                 TestAdvanceRepeatKey/PeriodUs
//	drop windowUsedUs from carried             TestAdvanceRepeatKey/windowUsedUs
//	drop the window's age from carried         TestAdvanceRepeatKey/windowAge
//	ignore Until (every horizon Forever)       TestAdvanceRepeatKey/Until
//	drop the level-against-slots check         TestAdvanceRepeatKey/level
//	let a thread with an OnRun repeat          TestAdvanceRepeatKey/OnRun
//	add m−1 windows' growth, not m             TestAdvanceAgainstStep
//	skip Meter.Observe on repeated ticks       TestAdvanceAgainstStep
//	call DVFS.Update once per repeated window  TestAdvanceAgainstStep
//	never repeat (m always 0)                  TestAdvanceRepeatsSteadyWindows
//
// A quota'd group's bandwidth window, compared as the next tick's prepare
// opens it and moved on by translation (the rows above re-applied too):
//
//	compare the raw closed window              TestAdvanceRepeatsAfterQuotaWrite
//	drop the age ≥ PeriodUs guard              TestAdvanceRepeatKey/windowUsedUs
//	take its growth from the snapshot          TestAdvanceRepeatKey/QuotaUs, /PeriodUs,
//	  difference                                 /quotaFromNone, /windowAge
//	roll the window inside Repeat              TestAdvanceRepeatKey/quotaFromNone, /windowAge
//
// The placement of a repeated window (placed in Repeat, placeRepeated,
// PlacementRepeats and the host's afresh branch):
//
//	drop the LastCPU comparison from Repeat    TestAdvanceRepeatKey/LastCPU
//	placeRepeated takes the slot's cores       TestAdvanceRepeatKey/ringOutputs
//	placeRepeated records no core (and skips
//	  the RepeatGen bump)                      TestAdvanceRepeatKey/ringOutputs
//	let the memo answer a window whose
//	  placement is not a fixed point           TestAdvanceRepeatKey/ringOutputs
//	drop the end-of-window fixed-point check:
//	  a fixed point is never found             TestAdvanceRepeatsWanderingPlacement/settling
//	  every window is one                      TestAdvanceRepeatKey/placementCycle
//	PlacementRepeats records no start          TestAdvanceRepeatKey/cutOffEntry
//	read the slowdown after an afresh tick     TestAdvanceAgainstStep
//
// The ring's records, which every Tick writes:
//
//	record no slot on a tick the previous
//	  tick answered                            TestAdvanceAgainstStep
//
// The window memo behind repeat (host.go), each mutation also red in
// TestAdvanceAgainstStep:
//
//	drop the phase from the key                TestAdvanceLooksUpSteadyWindows
//	drop the RepeatGen compare                 TestAdvanceRepeatKey/ringOutputs
//	recordGot reports no moved got (no bump)   TestAdvanceRepeatKey/QuotaUs
//	skip the RepeatGen bump in layoutReplay    TestAdvanceRepeatKey/ringLayout
//	add a hit's cycle growth once, not hits×   TestAdvanceRepeatKey/ringOutputs
//	skip the governor's step advance on a hit  TestAdvanceLooksUpSteadyWindows
//	a hit leaves tick 0's core loads           TestAdvanceRepeatKey/QuotaUs
//
// Equivalent mutants, green as they must be: drop the start-frequency, the
// start-slowdown or the tick-length compare. Each is implied by RepeatGen
// and the phase, as matches says; a tick-length change lays the ring out
// again. Dropping Repeat's slot-valid check is equivalent too: a slot is
// left unrecorded only by a new layout, which drops the snapshot, and the
// window between a snapshot and the next boundary records every slot.
// Leaving the core loads alone after a hit, as repeat does, is right and
// not a mutant: a boundary where Repeat succeeds follows tick n−1 of the
// ring, whose loads are the ones a hit's last tick leaves; compare checks
// every core's load.
//
// TestAdvanceAgainstStep alone turns red on nine of the first eleven: not
// on the PeriodUs or windowUsedUs rows.

// twin drives two machines through one schedule: side 0 calls Advance,
// side 1 calls Step once per tick. groups[.][0] is the root; the threads'
// sources are built twice, so a stateful one (a Bench) is not shared.
type twin struct {
	tb      testing.TB
	rng     *rand.Rand
	m       [2]*Machine
	groups  [2][]*sched.Group
	depth   []int
	threads [2][]*sched.Thread
	levels  [][2]*workload.Constant // the sources a schedule may retune
	idle    []int                   // threads that never run: their LastCPU may be parked off the machine
	calls   [2]int                  // Demand calls
	// blockers: the schedule may start threads that keep every window
	// of their machine from repeating (a Bench, a closed loop, a demand
	// with no horizon).
	blockers bool
}

func newTwin(tb testing.TB, seed int64) *twin {
	rng := rand.New(rand.NewSource(seed))
	spec := Chetemi()
	spec.Name = "twin"
	spec.Cores = 1 + rng.Intn(8)
	spec.NUMANodes = 1
	spec.CachePenalty = []float64{0, 0, 0.3}[rng.Intn(3)]
	tw := &twin{tb: tb, rng: rng, depth: []int{0}, blockers: rng.Intn(6) == 0}
	for side := range tw.m {
		m, err := New(spec)
		if err != nil {
			tb.Fatal(err)
		}
		tw.m[side] = m
		tw.groups[side] = []*sched.Group{m.Sched.Root()}
	}
	for i, n := 0, 2+rng.Intn(6); i < n; i++ {
		tw.newGroup()
	}
	for i, n := 0, 3+rng.Intn(10); i < n; i++ {
		tw.newThread()
	}
	return tw
}

func (tw *twin) newGroup() {
	p := tw.rng.Intn(len(tw.depth))
	if tw.depth[p] >= 3 || len(tw.depth) >= 16 {
		return
	}
	name := fmt.Sprintf("g%d", len(tw.depth))
	for side, m := range tw.m {
		tw.groups[side] = append(tw.groups[side], m.Sched.NewGroup(tw.groups[side][p], name))
	}
	tw.depth = append(tw.depth, tw.depth[p]+1)
	if tw.rng.Intn(2) == 0 {
		tw.setQuota(len(tw.depth) - 1)
	}
}

var (
	twinQuotas  = []int64{sched.NoQuota, 5000, 12_345, 30_000, 60_000, 150_000}
	twinPeriods = []int64{100_000, 100_000, 100_000, 100_000, 50_000, 20_000, 100_000, 50_000, 30_000, 1_000_000}
	twinLevels  = []float64{0, 0.005, 0.25, 0.5, 1}
	// twinAdvances are the Advance lengths: mostly the controller's 1 s
	// period, and lengths that end between window boundaries.
	twinAdvances = []int64{1_000_000, 1_000_000, 1_000_000, 300_000, 150_000, 20_000, 2_500_000, 1_050_000}
)

func (tw *twin) setQuota(i int) {
	// A period that does not divide the window (the last two) keeps its
	// group's windows from repeating.
	q, per := twinQuotas[tw.rng.Intn(len(twinQuotas))], twinPeriods[tw.rng.Intn(len(twinPeriods)-2*tw.rng.Intn(2))]
	for side := range tw.m {
		must(tw.groups[side][i].SetQuota(q, per))
	}
}

// closedLoop is a source whose level drops once its thread has run doneUs.
// It learns that through Account, which its Until (a Constant's: Forever)
// cannot foresee: the reason an OnRun keeps windows from repeating.
type closedLoop struct {
	workload.Constant
	ranUs, doneUs int64
}

func (c *closedLoop) Account(nowUs, ranUs, freqMHz int64) {
	if c.ranUs += ranUs; c.ranUs >= c.doneUs {
		c.Level = 0.25
	}
}

// source returns a maker of one kind of source, drawn once and built once
// per side, and whether the thread gets an Until.
func (tw *twin) source() (mk func() workload.Source, until bool) {
	r := tw.rng
	kind := r.Intn(6)
	if tw.blockers && r.Intn(3) == 0 {
		kind = 6 + r.Intn(3)
	}
	switch kind {
	case 0, 1:
		l := twinLevels[r.Intn(len(twinLevels))]
		return func() workload.Source { return &workload.Constant{Level: l} }, true
	case 2:
		b := workload.Bursty{PeriodUs: []int64{700_000, 1_000_000, 3_000_000, 50_000}[r.Intn(3+r.Intn(2))],
			Duty: float64(r.Intn(5)) / 4, High: 1, Low: twinLevels[r.Intn(3)], PhaseUs: r.Int63n(100_000)}
		return func() workload.Source { c := b; return &c }, true
	case 3:
		samples := make([]float64, 2+r.Intn(5))
		for i := range samples {
			samples[i] = twinLevels[r.Intn(len(twinLevels))]
		}
		step := []int64{150_000, 250_000, 1_000_000, 2_500_000, 70_000}[r.Intn(4+r.Intn(2))]
		return func() workload.Source { return &workload.Trace{Samples: samples, StepUs: step} }, true
	case 4:
		start := tw.m[0].NowUs() + r.Int63n(2_000_000)
		return func() workload.Source { return &workload.Delayed{StartUs: start, Inner: workload.Busy()} }, true
	case 5:
		return nil, true // Demand nil: always runnable
	case 6:
		cycles, start := 1_000_000+r.Int63n(50_000_000), tw.m[0].NowUs()+r.Int63n(500_000)
		return func() workload.Source {
			b, err := workload.NewBench("twin", 1, cycles, 3, start, 200_000)
			if err != nil {
				tw.tb.Fatal(err)
			}
			return b.Thread(0)
		}, true
	case 7:
		doneUs := 200_000 + r.Int63n(2_000_000)
		return func() workload.Source { return &closedLoop{Constant: workload.Constant{Level: 1}, doneUs: doneUs} }, true
	}
	// A demand without a horizon.
	return func() workload.Source { return &workload.Constant{Level: 0.5} }, false
}

func (tw *twin) newThread() {
	if len(tw.threads[0]) >= 24 {
		return
	}
	g := tw.rng.Intn(len(tw.depth))
	mk, until := tw.source()
	var pair [2]*workload.Constant
	for side, m := range tw.m {
		th := m.Sched.NewThread(tw.groups[side][g], nil)
		tw.threads[side] = append(tw.threads[side], th)
		if mk == nil {
			continue
		}
		src := mk()
		th.Demand = func(nowUs, dtUs int64) float64 {
			tw.calls[side]++
			return src.Demand(nowUs, dtUs)
		}
		if until {
			th.Until = src.Until
		}
		if a, ok := src.(workload.Accounter); ok {
			th.OnRun = a.Account
		}
		if c, ok := src.(*workload.Constant); ok && until {
			pair[side] = c
		}
	}
	if pair[0] != nil {
		tw.levels = append(tw.levels, pair)
		if pair[0].Level == 0 {
			tw.idle = append(tw.idle, len(tw.threads[0])-1)
		}
	}
}

func (tw *twin) removeThread() {
	if len(tw.threads[0]) == 0 {
		return
	}
	i := tw.rng.Intn(len(tw.threads[0]))
	if tw.threads[0][i] == nil {
		return
	}
	for side, m := range tw.m {
		m.Sched.RemoveThread(tw.threads[side][i])
		tw.threads[side][i] = nil // kept in place: levels and idle index the slice
	}
}

func (tw *twin) removeGroup() {
	if len(tw.depth) < 2 {
		return
	}
	i := 1 + tw.rng.Intn(len(tw.depth)-1)
	if tw.groups[0][i] == nil {
		return
	}
	for side, m := range tw.m {
		top := tw.groups[side][i]
		for k, th := range tw.threads[side] {
			if th != nil && under(th.Group, top) {
				tw.threads[side][k] = nil
			}
		}
		for k, g := range tw.groups[side] {
			if k > 0 && g != nil && under(g, top) && g != top {
				tw.groups[side][k] = nil
			}
		}
		if err := m.Sched.RemoveGroup(top); err != nil {
			tw.tb.Fatal(err)
		}
		tw.groups[side][i] = nil
	}
}

func under(g, top *sched.Group) bool {
	for ; g != nil; g = g.Parent {
		if g == top {
			return true
		}
	}
	return false
}

// mutate changes one thing between two Advance calls, on both sides.
func (tw *twin) mutate() {
	r := tw.rng
	g := r.Intn(len(tw.depth))
	if tw.groups[0][g] == nil {
		g = 0
	}
	switch r.Intn(8) {
	case 0:
		tw.newGroup()
	case 1:
		tw.removeGroup()
	case 2:
		tw.newThread()
	case 3:
		tw.removeThread()
	case 4:
		tw.setQuota(g)
	case 5, 6:
		if len(tw.levels) > 0 {
			pair := tw.levels[r.Intn(len(tw.levels))]
			l := twinLevels[r.Intn(len(twinLevels))]
			pair[0].Level, pair[1].Level = l, l
		}
	case 7:
		// A thread that never runs keeps whatever core it is given:
		// one off the machine does not fit the ring's slots.
		if len(tw.idle) > 0 {
			k := tw.idle[r.Intn(len(tw.idle))]
			if th := tw.threads[0][k]; th != nil && th.UsageUs == 0 {
				th.LastCPU, tw.threads[1][k].LastCPU = 1<<16+1, 1<<16+1
			}
		}
	}
}

// advance moves both sides on by d and compares them.
func (tw *twin) advance(label string, d int64) {
	tw.m[0].Advance(d)
	for elapsed := int64(0); elapsed < d; elapsed += tw.m[1].TickUs {
		tw.m[1].Step()
	}
	tw.compare(label)
}

func (tw *twin) compare(label string) {
	tb := tw.tb
	a, b := tw.m[0], tw.m[1]
	if a.NowUs() != b.NowUs() {
		tb.Fatalf("%s: now %d, stepped %d", label, a.NowUs(), b.NowUs())
	}
	for i, g := range tw.groups[0] {
		if g == nil {
			continue
		}
		h := tw.groups[1][i]
		if g.UsageUs != h.UsageUs {
			tb.Fatalf("%s: group %s usage %d, stepped %d", label, g.Path(), g.UsageUs, h.UsageUs)
		}
	}
	for i, th := range tw.threads[0] {
		if th == nil {
			continue
		}
		u := tw.threads[1][i]
		if th.UsageUs != u.UsageUs || th.LastCPU != u.LastCPU || th.Cycles != u.Cycles {
			tb.Fatalf("%s: thread %d usage %d cpu %d cycles %d, stepped usage %d cpu %d cycles %d",
				label, i, th.UsageUs, th.LastCPU, th.Cycles, u.UsageUs, u.LastCPU, u.Cycles)
		}
	}
	for c := 0; c < a.DVFS.Cores(); c++ {
		if a.DVFS.FreqMHz(c) != b.DVFS.FreqMHz(c) || a.Sched.CoreLoadUs(c) != b.Sched.CoreLoadUs(c) {
			tb.Fatalf("%s: core %d at %d MHz, loaded %d µs, stepped %d MHz, %d µs", label, c,
				a.DVFS.FreqMHz(c), a.Sched.CoreLoadUs(c), b.DVFS.FreqMHz(c), b.Sched.CoreLoadUs(c))
		}
	}
	if a.DVFS.Step() != b.DVFS.Step() {
		tb.Fatalf("%s: governor at update %d, stepped %d", label, a.DVFS.Step(), b.DVFS.Step())
	}
	if math.Float64bits(a.Meter.Joules()) != math.Float64bits(b.Meter.Joules()) {
		tb.Fatalf("%s: metered %v J, stepped %v J", label, a.Meter.Joules(), b.Meter.Joules())
	}
}

// run plays calls Advance calls: a mutation before about a third of them,
// a tick-length change before one in twenty.
func (tw *twin) run(label string, calls int) {
	for k := 0; k < calls; k++ {
		switch c := tw.rng.Intn(60); {
		case c == 0:
			tick := []int64{10_000, 10_000, 5000, 20_000, 30_000}[tw.rng.Intn(5)]
			tw.m[0].TickUs, tw.m[1].TickUs = tick, tick
		case c < 20:
			tw.mutate()
		}
		tw.advance(fmt.Sprintf("%s call %d", label, k), twinAdvances[tw.rng.Intn(len(twinAdvances))])
	}
}

// TestAdvanceAgainstStep holds Advance bit-identical to Step over seeded
// schedules: random trees of quota'd and unlimited groups; threads on
// every in-repo source (Constant, Bursty, Trace phases, Delayed, a Bench
// told of its work through OnRun), on no source and on a demand with no
// horizon; quota and level writes, thread and group
// churn, a thread parked off the machine and tick-length changes between
// calls; Advance lengths that end between window boundaries; a cache
// penalty on a third of the machines. The last check is that Advance
// repeated windows at all: it asked the sources at least a fifth less
// than Step did.
func TestAdvanceAgainstStep(t *testing.T) {
	schedules, calls := 120, 40
	if testing.Short() {
		schedules = 20
	}
	var advanced, stepped, evaluated, lookedUp int
	for seed := int64(1); seed <= int64(schedules); seed++ {
		tw := newTwin(t, seed)
		tw.run(fmt.Sprintf("seed %d", seed), calls)
		advanced += tw.calls[0]
		stepped += tw.calls[1]
		evaluated += tw.m[0].evaluated
		lookedUp += tw.m[0].lookedUp
	}
	t.Logf("Demand calls: %d advancing, %d stepping; repeated windows: %d evaluated, %d looked up", advanced, stepped, evaluated, lookedUp)
	if advanced > stepped*4/5 {
		t.Fatal("the schedules do not exercise the repeat: Advance asked the sources for more than 4/5 of what Step did")
	}
	if lookedUp < evaluated {
		t.Fatal("the schedules do not exercise the memo: Advance looked up fewer repeated windows than it evaluated")
	}
}

// FuzzAdvanceAgainstStep lets the fuzzer pick the seed of the schedule.
func FuzzAdvanceAgainstStep(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 17} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		newTwin(t, seed).run("fuzz", 24)
	})
}

// tableII boots a chetemi carrying the paper's Table II mix as vm.Manager
// lays it out (sched's tableIINode, on a machine): 20 two-vCPU and 10
// four-vCPU VM scopes under machine.slice, each vCPU a busy thread alone in
// a quota'd leaf (44 of the 40 cores, so the windows throttle), and a
// 0.5 % emulator thread per VM. offBoundary counts the first vCPU's Demand
// calls at ticks that do not open a window: 9 per window ticked.
func tableII(tb testing.TB) (m *Machine, offBoundary *int) {
	m, err := New(Chetemi())
	if err != nil {
		tb.Fatal(err)
	}
	s := m.Sched
	busy, emulator := workload.Busy(), &workload.Constant{Level: 0.005}
	offBoundary = new(int)
	first := func(nowUs, dtUs int64) float64 {
		if nowUs%sched.DefaultPeriodUs != 0 {
			*offBoundary++
		}
		return busy.Demand(nowUs, dtUs)
	}
	slice := s.NewGroup(nil, "machine.slice")
	for i := 0; i < 30; i++ {
		vcpus, quota := 2, int64(45_000)
		if i >= 20 {
			vcpus, quota = 4, 65_000
		}
		scope := s.NewGroup(slice, fmt.Sprintf("vm%d.scope", i))
		for j := 0; j < vcpus; j++ {
			g := s.NewGroup(scope, fmt.Sprintf("vcpu%d", j))
			if err := g.SetQuota(quota, sched.DefaultPeriodUs); err != nil {
				tb.Fatal(err)
			}
			demand := busy.Demand
			if i == 0 && j == 0 {
				demand = first
			}
			s.NewThread(g, demand).Until = busy.Until
		}
		s.NewThread(s.NewGroup(scope, "emulator"), emulator.Demand).Until = emulator.Until
	}
	return m, offBoundary
}

// TestAdvanceRepeatsSteadyWindows keeps the optimisation from rotting: on
// the Table II node, once one window has been ticked to compare with, at
// least 9 of every 10 windows are repeated, not ticked.
func TestAdvanceRepeatsSteadyWindows(t *testing.T) {
	m, offBoundary := tableII(t)
	m.Advance(1_000_000)
	before := *offBoundary
	const periods = 10
	for k := 0; k < periods; k++ {
		m.Advance(1_000_000)
	}
	ticked := (*offBoundary - before) / 9
	if windows := periods * 10; ticked > windows/10 {
		t.Fatalf("%d of %d steady windows were ticked, want at most %d", ticked, windows, windows/10)
	}
}

// TestAdvanceLooksUpSteadyWindows keeps the memo from rotting: on the Table
// II node, once each jitter phase's window has been evaluated, a one-second
// Advance evaluates no repeated window tick by tick; it looks all ten up.
func TestAdvanceLooksUpSteadyWindows(t *testing.T) {
	m, _ := tableII(t)
	m.Advance(1_000_000)
	evaluated, lookedUp := m.evaluated, m.lookedUp
	m.Advance(1_000_000)
	if n := m.evaluated - evaluated; n != 0 {
		t.Fatalf("a steady Advance evaluated %d repeated windows tick by tick, want 0", n)
	}
	if n := m.lookedUp - lookedUp; n != 10 {
		t.Fatalf("a steady Advance looked %d windows up, want 10", n)
	}
}

// TestAdvanceRepeatsWanderingPlacement keeps the repeat of a window whose
// allocations repeat while its placement moves: on the Table II node Advance
// stays bit-identical to Step, and after a first second at most 1 in 10 of
// its windows is ticked. On "rotating" vm0's vCPUs are capped lower, and
// 12 threads go round the cores for ever: every window is placed afresh.
// On "settling" eight threads are moved to the next core at a boundary:
// at most 3 windows of the second after are placed afresh before the
// placement comes back to a fixed point, and the rest are answered by the
// window memo.
func TestAdvanceRepeatsWanderingPlacement(t *testing.T) {
	for _, name := range []string{"rotating", "settling"} {
		t.Run(name, func(t *testing.T) {
			tw := &twin{tb: t}
			var offBoundary *int
			for side := range tw.m {
				m, n := tableII(t)
				tw.m[side] = m
				if side == 0 {
					offBoundary = n
				}
				if name == "rotating" {
					for _, vcpu := range m.Sched.Root().Children[0].Children[0].Children[:2] {
						must(vcpu.SetQuota(30_000, sched.DefaultPeriodUs))
					}
				}
			}
			tw.adopt()
			tw.advance("first second", 1_000_000)
			for s := 0; s < 3; s++ {
				if name == "settling" {
					for side := range tw.m {
						for _, th := range tw.threads[side][:8] {
							th.LastCPU = (th.LastCPU + 1) % 40
						}
					}
				}
				ticked, placed, lookedUp := *offBoundary, tw.m[0].placed, tw.m[0].lookedUp
				tw.advance(fmt.Sprintf("second %d", s), 1_000_000)
				ticked = (*offBoundary - ticked) / 9
				placed, lookedUp = tw.m[0].placed-placed, tw.m[0].lookedUp-lookedUp
				if ticked > 1 {
					t.Fatalf("second %d: %d of 10 windows were ticked, want at most 1", s, ticked)
				}
				if name == "settling" && (placed > 3 || lookedUp == 0) {
					t.Fatalf("second %d: %d of 10 windows were placed afresh and %d looked up, want at most 3 and some", s, placed, lookedUp)
				}
				if name == "rotating" && placed < 9 {
					t.Fatalf("second %d: %d of 10 windows were placed afresh: the case tests nothing", s, placed)
				}
			}
		})
	}
}

// TestAdvanceRepeatsAfterQuotaWrite keeps the window after a quota write
// from costing a second ticked one: on the Table II node, where each second
// every vCPU's cpu.max is written at the boundary, as the controller's
// stage 6 writes it, at most 1 of the second's 10 windows is ticked, and
// Advance stays bit-identical to Step. The ticked window closes its
// groups' bandwidth periods with new usages; the next boundary compares
// them as prepare opens them, empty, and repeats.
func TestAdvanceRepeatsAfterQuotaWrite(t *testing.T) {
	tw := &twin{tb: t}
	var offBoundary *int
	for side := range tw.m {
		m, n := tableII(t)
		tw.m[side] = m
		if side == 0 {
			offBoundary = n
		}
	}
	tw.adopt()
	tw.advance("first second", 1_000_000)
	for s, delta := range []int64{-5000, 3000, -1000} {
		for side := range tw.m {
			for _, g := range tw.groups[side] {
				if g.QuotaUs != sched.NoQuota {
					must(g.SetQuota(g.QuotaUs+delta, g.PeriodUs))
				}
			}
		}
		ticked := *offBoundary
		tw.advance(fmt.Sprintf("second %d", s), 1_000_000)
		if ticked = (*offBoundary - ticked) / 9; ticked > 1 {
			t.Fatalf("second %d: %d of 10 windows after the quota write were ticked, want at most 1", s, ticked)
		}
	}
}

// TestAdvanceRepeatNarrowCore: a busy thread's core written off the
// machine at a boundary, to a value sixteen bits would cut to core 3, and
// then to core 3 itself: the window after each write is placed afresh
// from where the thread is, as Step places it.
func TestAdvanceRepeatNarrowCore(t *testing.T) {
	tw := &twin{tb: t}
	for side := range tw.m {
		spec := Chetemi()
		spec.Cores, spec.NUMANodes = 4, 1
		m, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		tw.m[side] = m
		m.Sched.NewThread(nil, nil)
	}
	tw.adopt()
	tw.advance("quiet", 3_000_000)
	for i, core := range []int{1<<16 + 3, 3} {
		for side := range tw.m {
			tw.threads[side][0].LastCPU = core
		}
		tw.advance(fmt.Sprintf("core %d written", core), []int64{sched.DefaultPeriodUs, 1_000_000}[i])
	}
}

// BenchmarkAdvanceTableII is one steady one-second Advance of the Table II
// node: what the repository benchmark's node_steady pays the simulator per
// node-period.
func BenchmarkAdvanceTableII(b *testing.B) {
	m, _ := tableII(b)
	m.Advance(1_000_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Advance(1_000_000)
	}
}

// TestAdvanceZeroAlloc gates the steady state: a one-second Advance of the
// Table II node, repeat and ticks alike, does not allocate.
func TestAdvanceZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m, _ := tableII(t)
	for k := 0; k < 3; k++ {
		m.Advance(1_000_000)
	}
	if allocs := testing.AllocsPerRun(10, func() { m.Advance(1_000_000) }); allocs != 0 {
		t.Fatalf("steady-state Advance allocates %.1f/op, want 0", allocs)
	}
}

// keySide is one machine of a key case as its build and change see it:
// thread starts a thread on src, with src's Until (and Account, if any).
type keySide struct {
	m      *Machine
	s      *sched.Scheduler
	lv     []*workload.Constant // the levels build keeps for change to retune
	thread func(g *sched.Group, src workload.Source) *sched.Thread
}

// keyCase is a small machine on which exactly one input of Repeat moves at
// a window boundary while every other compares equal, so a Repeat that
// does not look at it repeats the wrong window.
type keyCase struct {
	name  string
	cores int
	// build makes one side's tree; it is called once per side.
	build func(k *keySide)
	// change, if set, is applied to each side after three quiet seconds
	// in which Advance repeated windows; again, if set, one second later.
	change, again func(k *keySide)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// quotaGroup makes a child of the root with a quota of quotaUs per periodUs.
func quotaGroup(s *sched.Scheduler, quotaUs, periodUs int64) *sched.Group {
	g := s.NewGroup(nil, "g")
	must(g.SetQuota(quotaUs, periodUs))
	return g
}

// lateGroup makes a quota'd group 30 ms into a window and realigns the
// clock to the next boundary: its bandwidth periods of 50 ms then roll 20
// ms before each boundary, so a window opens in the middle of one.
func lateGroup(k *keySide, level float64) {
	k.m.Advance(30_000)
	g := quotaGroup(k.s, 15_000, 50_000)
	k.lv = []*workload.Constant{{Level: level}}
	k.thread(g, k.lv[0])
	k.m.Advance(70_000)
}

var keyCases = []keyCase{
	{
		// A throttled group's quota grows: its window used the old quota
		// up at both boundaries.
		name: "QuotaUs", cores: 1,
		build:  func(k *keySide) { k.thread(quotaGroup(k.s, 30_000, sched.DefaultPeriodUs), workload.Busy()) },
		change: func(k *keySide) { must(k.s.Root().Children[0].SetQuota(50_000, sched.DefaultPeriodUs)) },
	},
	{
		name: "PeriodUs", cores: 1,
		build:  func(k *keySide) { k.thread(quotaGroup(k.s, 30_000, sched.DefaultPeriodUs), workload.Busy()) },
		change: func(k *keySide) { must(k.s.Root().Children[0].SetQuota(30_000, 50_000)) },
	},
	{
		// A busy group runs without a quota for three seconds, so its
		// window is as old as the group when the quota arrives; a
		// second later its period doubles, and the window it carries
		// must be the raw one a Step leaves, not one rolled ahead.
		name: "quotaFromNone", cores: 1,
		build:  func(k *keySide) { k.thread(k.s.NewGroup(nil, "g"), workload.Busy()) },
		change: func(k *keySide) { must(k.s.Root().Children[0].SetQuota(30_000, sched.DefaultPeriodUs)) },
		again:  func(k *keySide) { must(k.s.Root().Children[0].SetQuota(30_000, 200_000)) },
	},
	{
		name: "windowUsedUs", cores: 1,
		build:  func(k *keySide) { lateGroup(k, 0.5) },
		change: func(k *keySide) { k.lv[0].Level = 0.6 },
	},
	{
		// A busy group's period stops dividing the window: its age at
		// the boundaries cycles through 20, 30 and 10 ms, and with it
		// how much of its quota the window's ticks find left.
		name: "windowAge", cores: 1,
		build: func(k *keySide) {
			k.thread(quotaGroup(k.s, 5000, sched.DefaultPeriodUs), workload.Busy())
			k.thread(k.s.Root(), workload.Busy())
		},
		change: func(k *keySide) { must(k.s.Root().Children[0].SetQuota(5000, 30_000)) },
	},
	{
		name: "LastCPU", cores: 4,
		build: func(k *keySide) { k.thread(k.s.Root(), workload.Busy()) },
		change: func(k *keySide) {
			th := k.s.Root().Threads[0]
			th.LastCPU = (th.LastCPU + 1) % 4
		},
	},
	{
		// An idle thread is parked off the machine, at a core sixteen
		// bits would cut to core 1, while the busy thread's level
		// moves: no slot records the idle thread's core.
		name: "slotValid", cores: 2,
		build: func(k *keySide) {
			k.thread(k.s.Root(), workload.Idle())
			k.lv = []*workload.Constant{{Level: 1}}
			k.thread(k.s.NewGroup(nil, "a"), k.lv[0])
		},
		change: func(k *keySide) {
			k.s.Root().Threads[0].LastCPU = 1<<16 + 1
			k.lv[0].Level = 0.5
		},
	},
	{
		name: "level", cores: 1,
		build: func(k *keySide) {
			k.lv = []*workload.Constant{{Level: 1}}
			k.thread(k.s.NewGroup(nil, "a"), k.lv[0])
		},
		change: func(k *keySide) { k.lv[0].Level = 0.5 },
	},
	{
		// A trace's phase ends half way through an Advance.
		name: "Until", cores: 1,
		build: func(k *keySide) {
			k.thread(k.s.Root(), &workload.Trace{Samples: []float64{1, 0.5}, StepUs: 3_450_000})
		},
	},
	{
		// Two busy threads on two cores trade cores. Every allocation, core
		// load and frequency stays, but each thread now meets the other
		// core's jitter: only RepeatGen tells the memo that the ring's
		// outputs moved.
		name: "ringOutputs", cores: 2,
		build: func(k *keySide) {
			k.thread(k.s.NewGroup(nil, "a"), workload.Busy())
			k.thread(k.s.NewGroup(nil, "b"), workload.Busy())
		},
		change: func(k *keySide) {
			a, b := k.s.Root().Children[0].Threads[0], k.s.Root().Children[1].Threads[0]
			a.LastCPU, b.LastCPU = b.LastCPU, a.LastCPU
		},
	},
	{
		// Five busy threads, four of them quota'd, on two cores: the
		// allocations repeat every window, the placement never does.
		// Each window is placed afresh from where the last one ended,
		// and the slots' entries and cores follow it round.
		name: "placementCycle", cores: 2,
		build: func(k *keySide) {
			for _, q := range []int64{30_000, 30_000, sched.NoQuota, 45_000, 75_000} {
				g := k.s.NewGroup(nil, "g")
				if q != sched.NoQuota {
					must(g.SetQuota(q, sched.DefaultPeriodUs))
				}
				k.thread(g, workload.Busy())
			}
		},
	},
	{
		// x (0.4 of a core) and w (0.2) run on core 1; v, busy under a
		// quota of half a window whose periods open mid-window, runs on
		// core 0 in each window's second half. x is written off the
		// machine at a boundary, to a core sixteen bits would cut to 1:
		// tick 0 places it on core 0, and tick 5 sends it back to core 1
		// beside v. The next window's tick 0 finds x on core 1, where it
		// stays.
		name: "cutOffEntry", cores: 2,
		build: func(k *keySide) {
			k.m.Advance(50_000)
			k.thread(k.s.NewGroup(nil, "x"), &workload.Constant{Level: 0.4})
			k.thread(k.s.NewGroup(nil, "w"), &workload.Constant{Level: 0.2})
			k.thread(quotaGroup(k.s, 50_000, sched.DefaultPeriodUs), workload.Busy())
			k.m.Advance(50_000)
		},
		change: func(k *keySide) { k.s.Root().Children[0].Threads[0].LastCPU = 1<<16 + 1 },
	},
	{
		// Every thread idle with core 0 its last, as a thread that ran
		// there and stopped is, and one more such starts. The new layout's
		// slots record the zeros the fresh ones held, so only the layout's
		// own count tells the memo that its records are a thread short.
		name: "ringLayout", cores: 1,
		build: func(k *keySide) { k.thread(k.s.Root(), workload.Idle()).LastCPU = 0 },
		change: func(k *keySide) {
			k.thread(k.s.NewGroup(nil, "late"), workload.Idle()).LastCPU = 0
		},
	},
	{
		// A closed loop starts: its level drops after 0.3 s of running,
		// 0.6 s in, which only its OnRun learns.
		name: "OnRun", cores: 1,
		build: func(k *keySide) { k.thread(k.s.Root(), workload.Busy()) },
		change: func(k *keySide) {
			k.thread(k.s.NewGroup(nil, "loop"), &closedLoop{Constant: workload.Constant{Level: 1}, doneUs: 300_000})
		},
	},
}

// TestAdvanceRepeatKey holds Advance to Step on the key cases: each must
// repeat windows before its change, and stay bit-identical after it.
func TestAdvanceRepeatKey(t *testing.T) {
	for _, kc := range keyCases {
		t.Run(kc.name, func(t *testing.T) {
			tw := &twin{tb: t}
			var sides [2]*keySide
			for side := range tw.m {
				spec := Chetemi()
				spec.Cores, spec.NUMANodes = kc.cores, 1
				m, err := New(spec)
				if err != nil {
					t.Fatal(err)
				}
				tw.m[side] = m
				k := &keySide{m: m, s: m.Sched}
				k.thread = func(g *sched.Group, src workload.Source) *sched.Thread {
					th := m.Sched.NewThread(g, func(nowUs, dtUs int64) float64 {
						tw.calls[side]++
						return src.Demand(nowUs, dtUs)
					})
					th.Until = src.Until
					if a, ok := src.(workload.Accounter); ok {
						th.OnRun = a.Account
					}
					return th
				}
				kc.build(k)
				sides[side] = k
			}
			tw.adopt()
			for s := 0; s < 3; s++ {
				tw.advance(fmt.Sprintf("quiet second %d", s), 1_000_000)
			}
			if tw.calls[0] >= tw.calls[1] {
				t.Fatal("Advance repeated no window before the change: the case tests nothing")
			}
			for _, fn := range []func(*keySide){kc.change, kc.again} {
				for _, k := range sides {
					if fn != nil {
						fn(k)
					}
				}
				tw.adopt()
				for s := 0; s < 2; s++ {
					tw.advance(fmt.Sprintf("second %d after the change", s), 1_000_000)
				}
			}
		})
	}
}

// adopt lists each side's groups in pre-order and their threads, for
// compare.
func (tw *twin) adopt() {
	for side, m := range tw.m {
		tw.groups[side], tw.threads[side] = nil, nil
		var walk func(g *sched.Group)
		walk = func(g *sched.Group) {
			tw.groups[side] = append(tw.groups[side], g)
			tw.threads[side] = append(tw.threads[side], g.Threads...)
			for _, c := range g.Children {
				walk(c)
			}
		}
		walk(m.Sched.Root())
	}
}
