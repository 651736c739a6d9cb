package sched

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
)

// Tests of the previous-tick memo and the replay ring (replay.go). Their
// contract is the tick's: bit-identity with referenceTick, held by the
// twins of sched_test.go, whose schedules rest long enough for the memo to
// answer. What these tests add is that every value the memo compares is
// needed, one TestTickReplayKey case per value, that the placement is
// never skipped with the allocation, and that the ring, which every tick
// records for Repeat, stays small. The ring's records of want, got and
// core are Repeat's inputs: host's TestAdvanceRepeatKey holds them, and
// host's kill list names the mutations of that side.
//
// The kill list: each of these one-line mutations of replay.go, repeat.go
// or sched.go was applied to this code and turned the named test red.
//
//	drop `r.gen == s.gen` from the layout check         TestTickReplayKey/shape/previous
//	drop `r.dtUs == dtUs`                               TestTickReplayKey/dtUs/previous
//	drop `r.cores == s.Cores`                           TestTickReplayKey/Cores/previous, Cores3ms/previous
//	drop prevOK (a new layout keeps the memo)           TestTickReplayKey/dtUs/previous
//	drop the want comparison in prepare                 TestTickReplayKey/want/previous
//	drop the need comparison in prepare                 TestTickReplayKey/need/previous
//	skip placeOnCores where the allocation stands       TestTickReplayKey/LastCPU/previous
//	drop the MaxInt16 bound on the cores                TestTickReplayWideMachine
//	skip zeroing got before allocate                    TestTickReplayKey/need/previous
//	placeOnCores leaves Alloc.Core as settle listed it  TestTickAgainstReference
//
// The slot's order, the floor mask of placeOnCores and the waterfill:
//
//	keep a slot's order after recordGot finds got moved TestTickAgainstReference (panics)
//	take a slot's order whether it is kept or not       TestTickAgainstReference
//	the bit scan takes the highest set bit              TestTickAgainstReference
//	the floor is found again as load[0], not the least  TestTickAgainstReference
//	placing on a core leaves its bit set                TestTickAgainstReference
//	the bit scan drops the word index                   TestTickWideMachines/65
//	one word of mask on every machine                   TestTickWideMachines/65 (panics)
//	offer every entity at least 2 µs, not 1             TestTickAgainstReference
//	offer one µs more than the equal share              TestTickAgainstReference
//	waterfill stores no gain through dst                TestTickAgainstReference
//
// Repeat leaves the previous tick standing, as it must: a boundary where it
// repeats follows the tick the ring's last slot recorded, and it writes
// neither a core load nor a LastCPU (TestTickAfterRepeatedTick/none).

// keyCase is a small machine on which exactly one input of the skipped code
// moves while every other compares equal, so a memo that does not look at
// it answers with the wrong tick.
type keyCase struct {
	name  string
	cores int
	dt    int64
	// build makes the tree; it is called once per twin. Demands read
	// level[i], which change may write.
	build func(s *Scheduler, level *[2]float64)
	// change is applied to each twin after three quiet windows. It may
	// return a new tick length.
	change func(s *Scheduler, level *[2]float64) int64
	// again, if set, is applied to each twin one window after change.
	again func(s *Scheduler)
	// wiped replaces the reference by a production scheduler whose ring is
	// emptied before every tick, for states the reference places
	// differently (Cores written to differ from the cores New laid out).
	wiped bool
}

func fixed(level *[2]float64, i int) func(nowUs, dtUs int64) float64 {
	return func(nowUs, dtUs int64) float64 { return level[i] }
}

var keyCases = []keyCase{
	{
		// Two threads trade levels: every need (the sum) stays.
		name: "want", cores: 2, dt: 10_000,
		build: func(s *Scheduler, level *[2]float64) {
			s.NewThread(nil, fixed(level, 0))
			s.NewThread(nil, fixed(level, 1))
		},
		change: func(s *Scheduler, level *[2]float64) int64 {
			level[0], level[1] = 0.5, 0.25
			return 0
		},
	},
	{
		// A thread moved under a standing allocation: the memo answers
		// the allocation, and the tick places the thread from its new
		// core.
		name: "LastCPU", cores: 4, dt: 10_000,
		build: func(s *Scheduler, level *[2]float64) { s.NewThread(nil, fixed(level, 0)) },
		change: func(s *Scheduler, level *[2]float64) int64 {
			s.Thread(1).LastCPU = 2
			return 0
		},
	},
	{
		// The quota grows: wants stay, the group's need in the window's
		// later ticks does not.
		name: "need", cores: 1, dt: 10_000,
		build: func(s *Scheduler, level *[2]float64) {
			g := s.NewGroup(nil, "g")
			if err := g.SetQuota(30_000, DefaultPeriodUs); err != nil {
				panic(err)
			}
			s.NewThread(g, nil)
		},
		change: func(s *Scheduler, level *[2]float64) int64 {
			if err := s.Root().Children[0].SetQuota(55_000, DefaultPeriodUs); err != nil {
				panic(err)
			}
			return 0
		},
	},
	{
		// A thread arrives: the slots have no record for it.
		name: "shape", cores: 2, dt: 10_000,
		build: func(s *Scheduler, level *[2]float64) { s.NewThread(nil, fixed(level, 0)) },
		change: func(s *Scheduler, level *[2]float64) int64 {
			s.NewThread(nil, fixed(level, 1))
			return 0
		},
	},
	{
		// Three threads that want 5 ms of every tick, however long, on
		// one core: halving the tick halves the capacity and nothing
		// else the previous tick compares.
		name: "dtUs", cores: 1, dt: 10_000,
		build: func(s *Scheduler, level *[2]float64) {
			for i := 0; i < 3; i++ {
				s.NewThread(nil, func(nowUs, dtUs int64) float64 { return 5000 / float64(dtUs) })
			}
		},
		change: func(s *Scheduler, level *[2]float64) int64 { return 5000 },
	},
	{
		name: "Cores", cores: 2, dt: 10_000, wiped: true,
		build: func(s *Scheduler, level *[2]float64) {
			for i := 0; i < 3; i++ {
				s.NewThread(nil, nil)
			}
		},
		change: func(s *Scheduler, level *[2]float64) int64 {
			s.Cores = 1
			return 0
		},
	},
	{
		name: "Cores3ms", cores: 2, dt: 3000, wiped: true,
		build: func(s *Scheduler, level *[2]float64) {
			for i := 0; i < 3; i++ {
				s.NewThread(nil, nil)
			}
		},
		change: func(s *Scheduler, level *[2]float64) int64 {
			s.Cores = 1
			return 0
		},
	},
	{
		// A LastCPU written off the machine, to a value sixteen bits
		// would cut to 3, the core the thread is on, under a standing
		// allocation: the thread goes to core 0. A window later it is
		// written back to core 3, where it stays.
		name: "narrowing", cores: 4, dt: 10_000,
		build: func(s *Scheduler, level *[2]float64) { s.NewThread(nil, fixed(level, 0)).LastCPU = 3 },
		change: func(s *Scheduler, level *[2]float64) int64 {
			s.Thread(1).LastCPU = 1<<16 + 3
			return 0
		},
		again: func(s *Scheduler) { s.Thread(1).LastCPU = 3 },
	},
}

// TestTickReplayKey runs every case against the previous-tick memo, which
// answers every quiet tick where a case's inputs hold still from tick to
// tick.
func TestTickReplayKey(t *testing.T) {
	for _, kc := range keyCases {
		t.Run(kc.name, func(t *testing.T) {
			t.Run("previous", func(t *testing.T) { testReplayKey(t, kc) })
		})
	}
}

func testReplayKey(t *testing.T, kc keyCase) {
	level := [2]float64{0.25, 0.5}
	mk := func() *Scheduler {
		s := New(kc.cores)
		kc.build(s, &level)
		return s
	}
	tw := adoptTwins(t, mk(), mk())
	// answered counts the ticks whose allocation the previous tick
	// answered.
	answered := func() uint64 { return tw.prod.replay.prevGot }
	tick := func(label string, dt int64) {
		if !kc.wiped {
			tw.tickOf(label, dt)
			return
		}
		// The oracle of this case: the same scheduler with no memory.
		tw.ref.replay = replay{}
		got, want := tw.prod.Tick(dt), tw.ref.Tick(dt)
		if len(got) != len(want) {
			t.Fatalf("%s: %d allocations, without the memo %d", label, len(got), len(want))
		}
		for i := range got {
			if g, w := got[i], want[i]; g.Thread.ID != w.Thread.ID || g.RanUs != w.RanUs || g.Core != w.Core {
				t.Fatalf("%s: alloc %d = {tid %d ran %d core %d}, without the memo {tid %d ran %d core %d}",
					label, i, g.Thread.ID, g.RanUs, g.Core, w.Thread.ID, w.RanUs, w.Core)
			}
		}
	}
	dt := kc.dt
	window := int(DefaultPeriodUs / dt)
	for k := 0; k < 3*window; k++ {
		tick(fmt.Sprintf("quiet tick %d", k), dt)
	}
	before := answered()
	if before == 0 {
		t.Fatal("the memo never answered: the case tests nothing")
	}
	for _, s := range []*Scheduler{tw.prod, tw.ref.Scheduler} {
		if d := kc.change(s, &level); d != 0 {
			dt = d
		}
	}
	if len(tw.threads[0]) != len(tw.prod.threads) {
		tw = adoptTwins(t, tw.prod, tw.ref.Scheduler)
	}
	window = int(DefaultPeriodUs / dt)
	for k := 0; k < 3*window; k++ {
		if k == window && kc.again != nil {
			kc.again(tw.prod)
			kc.again(tw.ref.Scheduler)
		}
		tick(fmt.Sprintf("tick %d after the change", k), dt)
	}
	// The memo went back to sleep on the new state.
	if answered() == before {
		t.Fatal("the memo answered no tick after the change")
	}
}

// TestTickReplayWideMachine: a core number sixteen bits do not hold is never
// recorded, because such a machine is given no ring.
func TestTickReplayWideMachine(t *testing.T) {
	mk := func() *Scheduler {
		s := New(40_000)
		s.NewThread(nil, nil).LastCPU = 33_000
		return s
	}
	tw := adoptTwins(t, mk(), mk())
	for k := 0; k < 25; k++ {
		tw.tickOf(fmt.Sprintf("tick %d", k), 10_000)
	}
	if r := tw.prod.replay; r.slots != nil {
		t.Fatalf("a 40 000-core machine was given a ring of %d slots", len(r.slots))
	}
}

// TestTickWideMachines: the least-loaded core is found by a bit per core in
// words of 64, and a machine of one word, of a word and a bit, and of two
// words must place as the reference's scan does. More threads than cores
// and a few of them moved between ticks send threads to the least-loaded
// core on every tick, up to the last core.
func TestTickWideMachines(t *testing.T) {
	for _, cores := range []int{63, 64, 65, 128, 130} {
		t.Run(fmt.Sprint(cores), func(t *testing.T) {
			mk := func() *Scheduler {
				s := New(cores)
				for i := 0; i < cores+7; i++ {
					level := float64(4+i%13) / 16
					s.NewThread(nil, func(nowUs, dtUs int64) float64 { return level })
				}
				return s
			}
			tw := adoptTwins(t, mk(), mk())
			rng := rand.New(rand.NewSource(int64(cores)))
			last := false
			for k := 0; k < 60; k++ {
				if k%4 == 3 {
					for n := 0; n < 5; n++ {
						i, c := rng.Intn(len(tw.threads[0])), rng.Intn(cores+2)-1
						tw.threads[0][i].LastCPU, tw.threads[1][i].LastCPU = c, c
					}
				}
				tw.tickOf(fmt.Sprintf("tick %d", k), 10_000)
				last = last || tw.prod.CoreLoadUs(cores-1) > 0
			}
			if !last {
				t.Fatalf("core %d never ran a thread: the case tests nothing", cores-1)
			}
		})
	}
}

// TestTickAfterRepeatedTick: the previous tick's allocation stands across
// a repeated window, whose RepeatedTicks write the core loads and not the
// allocation. A group whose 50 ms bandwidth periods start 30 ms into each
// window runs in ticks 3 and 8 of it and is throttled in ticks 9 and 0, so
// the tick after a repeated window meets what the last ticked one met;
// handing out tick 3 of the repeated window last leaves loads that are not
// tick 9's, which that tick must not take for its own. The calls the host
// makes are played too: no RepeatedTick (a window looked up), and every
// one in order (a window evaluated).
func TestTickAfterRepeatedTick(t *testing.T) {
	for name, handed := range map[string][]int{
		"none":   nil,
		"all":    {0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		"tick 3": {3},
	} {
		t.Run(name, func(t *testing.T) {
			mk := func() *Scheduler { s := New(2); s.NewThread(nil, nil); return s }
			tw := adoptTwins(t, mk(), mk())
			for k := 0; k < 3; k++ {
				tw.tickOf(fmt.Sprintf("tick %d", k), 10_000)
			}
			for side := 0; side < 2; side++ {
				s := tw.sched(side)
				g := s.NewGroup(nil, "late")
				if err := g.SetQuota(10_000, 50_000); err != nil {
					t.Fatal(err)
				}
				tw.threads[side] = append(tw.threads[side], s.NewThread(g, nil))
			}
			for k := 3; k < 30; k++ {
				if k == 20 && tw.prod.Repeat(10_000, 1) != 0 {
					t.Fatal("Repeat repeated a window before it had a snapshot to compare with")
				}
				tw.tickOf(fmt.Sprintf("tick %d", k), 10_000)
			}
			if m := tw.prod.Repeat(10_000, 1); m != 1 {
				t.Fatalf("Repeat at a steady boundary repeated %d windows, want 1", m)
			}
			for _, k := range handed {
				tw.prod.RepeatedTick(k)
			}
			for k := 0; k < 10; k++ {
				tw.ref.referenceTick(10_000)
			}
			prev := tw.prod.replay.prevGot
			for k := 0; k < 20; k++ {
				tw.tickOf(fmt.Sprintf("tick %d after the repeated window", k), 10_000)
			}
			if tw.prod.replay.prevGot == prev {
				t.Fatal("the previous tick never answered after the repeated window: the case tests nothing")
			}
		})
	}
}

// TestTickReplaySteadyState keeps the optimisation from rotting: on the
// Table II node, after one window of warm-up, seven ticks in ten meet the
// tick before and take its allocation; the other three are allocated
// afresh. A quota write costs the memo the ticks it moves and no
// more: a window after it, the memo answers seven in ten again.
func TestTickReplaySteadyState(t *testing.T) {
	s := tableIINode()
	steady := func(what string, ticks, answered uint64) {
		t.Helper()
		was := s.replay
		for k := uint64(0); k < ticks; k++ {
			s.Tick(10_000)
		}
		r := &s.replay
		if got := r.prevGot - was.prevGot; got != answered {
			t.Fatalf("%s: of %d ticks %d met the previous tick's allocation, want %d", what, ticks, got, answered)
		}
	}
	for k := 0; k < 11; k++ {
		s.Tick(10_000)
	}
	steady("steady", 200, 140)

	vcpu := s.Root().Children[0].Children[0].Children[0]
	if err := vcpu.SetQuota(vcpu.QuotaUs-1000, DefaultPeriodUs); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		s.Tick(10_000)
	}
	steady("a window after a quota write", 30, 21)
}

// TestTickReplayFootprint keeps the ring from growing: on the Table II
// node (142 groups, 110 threads, 10 slots) a slot costs 8 bytes per
// thread (its record and its place in the order), the tree's pre-order 8
// bytes per group and the slots' thread list 8 per thread, once.
func TestTickReplayFootprint(t *testing.T) {
	s := tableIINode()
	for k := 0; k < 30; k++ {
		s.Tick(10_000)
	}
	footprint := func() uintptr {
		r := &s.replay
		n := unsafe.Sizeof(*r) +
			uintptr(cap(r.groups))*unsafe.Sizeof(r.groups[0]) +
			uintptr(cap(r.threads))*unsafe.Sizeof(r.threads[0]) +
			uintptr(cap(r.slots))*unsafe.Sizeof(r.slots[0])
		if len(r.slots) > 0 {
			// The slots share two backing arrays; slot 0 starts both.
			n += uintptr(cap(r.slots[0].threads))*unsafe.Sizeof(threadRec{}) +
				uintptr(len(r.slots)*cap(r.slots[0].order))*2
		}
		return n
	}
	// 11 560 bytes, the footprint measured: the slots' records and
	// orders, their headers, the two lists and the ring's own fields (184
	// bytes).
	const bound = 10*(110*8+56) + 142*8 + 110*8 + 184
	full := footprint()
	if len(s.replay.slots) != 10 || full > bound {
		t.Fatalf("the ring of a Table II node has %d slots and takes %d bytes, want 10 and at most %d", len(s.replay.slots), full, bound)
	}
	// A tree that shrank gives the memory back: the ring is laid out
	// again, not kept at its high-water mark.
	for _, scope := range append([]*Group(nil), s.Root().Children[0].Children[1:]...) {
		if err := s.RemoveGroup(scope); err != nil {
			t.Fatal(err)
		}
	}
	s.Tick(10_000)
	if one := footprint(); one > full/10 {
		t.Fatalf("with 1 VM of 30 left the ring takes %d bytes, %d with all", one, full)
	}
}

// TestNeedStandsInForQuotaRemaining asserts what lets the previous-tick
// memo leave quotaRemaining, which allocate reads, out of what it compares: below the root no
// group is handed more than its need, and no need exceeds what remains of
// the group's quota, so allocate's clamp cannot bind there and the root's
// binds only where it has bound the root's need already.
func TestNeedStandsInForQuotaRemaining(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		tw := newTwins(t, &chooser{rng: rand.New(rand.NewSource(seed))})
		s := tw.prod
		for k := 0; k < 60; k++ {
			if k%7 == 3 {
				tw.mutate()
			}
			// The miss path of Tick, stage by stage.
			dt := diffTicks[tw.c.intn(len(diffTicks))]
			s.prepare(s.root, dt)
			groups := appendPreorder(nil, s.root)
			for _, g := range groups {
				if g.need < 0 || g.need > g.quotaRemaining() {
					t.Fatalf("seed %d tick %d: %s needs %d with %d of its quota left", seed, k, g.Path(), g.need, g.quotaRemaining())
				}
			}
			s.layoutReplay(dt)
			s.allocateTick(dt)
			for _, g := range groups[1:] {
				if g.share < 0 || g.share > g.need {
					t.Fatalf("seed %d tick %d: %s was handed %d, needs %d", seed, k, g.Path(), g.share, g.need)
				}
			}
			if sum, r := sumShares(s.root), s.root; sum > min(r.need, dt*int64(s.Cores)) {
				t.Fatalf("seed %d tick %d: the root handed out %d of need %d, capacity %d", seed, k, sum, r.need, dt*int64(s.Cores))
			}
			s.allocScratch = s.allocScratch[:0]
			s.settle(s.root)
			s.placeOnCores(s.allocScratch, dt, nil)
			s.nowUs += dt
		}
	}
}

// sumShares is what g's waterfill handed its threads and sub-groups.
func sumShares(g *Group) int64 {
	var sum int64
	for _, t := range g.Threads {
		sum += t.got
	}
	for _, c := range g.Children {
		sum += c.share
	}
	return sum
}
