package sched

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
)

// Tests of the replay ring (replay.go). Its contract is the tick's: bit-
// identity with referenceTick, held by the twins of sched_test.go, whose
// schedules now rest long enough for the ring to answer. What these tests
// add is that every value the ring compares is needed, one test per value.
//
// The kill list: each of these one-line mutations of replay.go or of Tick
// was applied and turned the named test red (CHANGES.md, PR 24, has the
// outcome of each).
//
//	drop the want comparison in replayLookup        TestTickReplayKey/want
//	drop the LastCPU comparison                     TestTickReplayKey/LastCPU
//	drop the need comparison                        TestTickReplayKey/need
//	drop the Weight comparison                      TestTickReplayKey/Weight
//	drop `r.gen == s.gen` from the layout check     TestTickReplayKey/shape
//	drop `r.dtUs == dtUs`                           TestTickReplayKey/dtUs
//	drop `r.cores == s.Cores`                       TestTickReplayKey/Cores
//	skip settle when gotHit                         TestTickAgainstReferenceTableII
//	replayCores sets Alloc.Core, not Thread.LastCPU TestTickAgainstReferenceTableII
//	drop the check in narrow                        TestTickReplayKey/narrowing
//	drop the MaxInt16 bound on the cores            TestTickReplayWideMachine
//	let coreHit stand without gotHit                TestTickReplayKey/need
//	a Weight write voids only the current slot      TestTickReplayKey/Weight
//	skip replayGot on a gotHit                      TestTickAgainstReferenceTableII
//	drop clear(load) or the load add in replayCores TestTickAgainstReferenceTableII

// keyCase is a small machine on which exactly one input of the skipped code
// moves while every other compares equal, so a ring that does not look at
// it replays the wrong tick.
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
	// again, if set, is applied to each twin before the tick that revisits
	// the slot change was made in front of, one window later.
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
		name: "LastCPU", cores: 4, dt: 10_000,
		build: func(s *Scheduler, level *[2]float64) { s.NewThread(nil, fixed(level, 0)) },
		change: func(s *Scheduler, level *[2]float64) int64 {
			s.Thread(1).LastCPU = 2
			return 0
		},
	},
	{
		// The quota grows: wants stay, the group's need in the window's
		// later ticks does not. The placement key (LastCPU) stays too,
		// so a coreHit that did not require a gotHit would replay.
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
		name: "Weight", cores: 1, dt: 10_000,
		build: func(s *Scheduler, level *[2]float64) {
			s.NewThread(s.NewGroup(nil, "a"), nil)
			s.NewThread(s.NewGroup(nil, "b"), nil)
		},
		change: func(s *Scheduler, level *[2]float64) int64 {
			s.Root().Children[0].Weight = 300
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
		// else the ring looks at.
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
		// A LastCPU that sixteen bits cut down to 3 is recorded (the
		// thread, found off the machine, goes to core 0); a window later
		// the thread does come from core 3, where it would stay.
		name: "narrowing", cores: 4, dt: 10_000,
		build: func(s *Scheduler, level *[2]float64) { s.NewThread(nil, fixed(level, 0)).LastCPU = 3 },
		change: func(s *Scheduler, level *[2]float64) int64 {
			s.Thread(1).LastCPU = 1<<16 + 3
			return 0
		},
		again: func(s *Scheduler) { s.Thread(1).LastCPU = 3 },
	},
}

func TestTickReplayKey(t *testing.T) {
	for _, kc := range keyCases {
		t.Run(kc.name, func(t *testing.T) {
			level := [2]float64{0.25, 0.5}
			mk := func() *Scheduler {
				s := New(kc.cores)
				kc.build(s, &level)
				return s
			}
			tw := adoptTwins(t, mk(), mk())
			tick := func(label string, dt int64) {
				if !kc.wiped {
					tw.tickOf(label, dt)
					return
				}
				// The oracle of this case: the same scheduler with
				// no memory.
				tw.ref.replay = replay{}
				got, want := tw.prod.Tick(dt), tw.ref.Tick(dt)
				if len(got) != len(want) {
					t.Fatalf("%s: %d allocations, without the ring %d", label, len(got), len(want))
				}
				for i := range got {
					if g, w := got[i], want[i]; g.Thread.ID != w.Thread.ID || g.RanUs != w.RanUs || g.Core != w.Core {
						t.Fatalf("%s: alloc %d = {tid %d ran %d core %d}, without the ring {tid %d ran %d core %d}",
							label, i, g.Thread.ID, g.RanUs, g.Core, w.Thread.ID, w.RanUs, w.Core)
					}
				}
			}
			dt := kc.dt
			window := int(DefaultPeriodUs / dt)
			for k := 0; k < 3*window; k++ {
				tick(fmt.Sprintf("quiet tick %d", k), dt)
			}
			before := tw.prod.replay
			if before.coreHits == 0 {
				t.Fatal("the ring never replayed: the case tests nothing")
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
			// The ring went back to sleep on the new state.
			if after := tw.prod.replay; after.coreHits == before.coreHits {
				t.Fatal("no tick replayed after the change")
			}
		})
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
	if r := tw.prod.replay; r.slots != nil || r.gotHits != 0 {
		t.Fatalf("a 40 000-core machine was given a ring of %d slots", len(r.slots))
	}
}

// slotKey copies the inputs slot i of s's ring holds.
func slotKey(s *Scheduler, i int64) (needs []int32, threads []threadRec) {
	sl := &s.replay.slots[i]
	return append([]int32(nil), sl.needs...), append([]threadRec(nil), sl.threads...)
}

// TestTickReplaySteadyState keeps the optimisation from rotting: on the
// Table II node every tick after the ring's warm-up (one window, and one
// tick more because the very first tick met threads that had never run) is
// replayed whole, and a quota write costs the slots whose inputs it moved,
// no more and no fewer.
func TestTickReplaySteadyState(t *testing.T) {
	s := tableIINode()
	for k := 0; k < 11; k++ {
		s.Tick(10_000)
	}
	warm := s.replay
	for k := 0; k < 200; k++ {
		s.Tick(10_000)
	}
	if got, core := s.replay.gotHits-warm.gotHits, s.replay.coreHits-warm.coreHits; got != 200 || core != 200 {
		t.Fatalf("of 200 steady ticks %d replayed the allocation and %d the placement, want all", got, core)
	}

	vcpu := s.Root().Children[0].Children[0].Children[0]
	if err := vcpu.SetQuota(vcpu.QuotaUs-1000, DefaultPeriodUs); err != nil {
		t.Fatal(err)
	}
	missed := 0
	for k := 0; k < 10; k++ {
		// replayLookup leaves the tick's inputs in the slot, hit or
		// miss: the slot was hit iff the tick leaves it as it found it.
		i := s.NowUs() / 10_000 % 10
		needs, threads := slotKey(s, i)
		was := s.replay
		s.Tick(10_000)
		nowNeeds, nowThreads := slotKey(s, i)
		gotSame, coreSame := true, true
		for j := range needs {
			gotSame = gotSame && needs[j] == nowNeeds[j]
		}
		for j := range threads {
			gotSame = gotSame && threads[j].want == nowThreads[j].want
			coreSame = coreSame && threads[j].lastCPU == nowThreads[j].lastCPU
		}
		coreSame = coreSame && gotSame
		if gotHit, coreHit := s.replay.gotHits != was.gotHits, s.replay.coreHits != was.coreHits; gotHit != gotSame || coreHit != coreSame {
			t.Fatalf("slot %d after the quota write: replayed allocation %v placement %v, inputs unchanged %v %v",
				i, gotHit, coreHit, gotSame, coreSame)
		}
		if !coreSame {
			missed++
		}
	}
	if missed == 0 || missed == 10 {
		t.Fatalf("one quota write cost %d of 10 slots, want some and not all", missed)
	}
	was := s.replay
	for k := 0; k < 30; k++ {
		s.Tick(10_000)
	}
	if r := s.replay; r.coreHits-was.coreHits != 30 {
		t.Fatalf("a window after the quota write %d of 30 ticks replayed, want all", r.coreHits-was.coreHits)
	}
}

// TestTickReplayFootprint keeps the ring from growing: on the Table II
// node (142 groups, 110 threads, 10 slots) a slot costs 8 bytes per thread
// and 4 per group, the tree's pre-order and weights 16 per group once.
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
			uintptr(cap(r.weights))*unsafe.Sizeof(r.weights[0]) +
			uintptr(cap(r.slots))*unsafe.Sizeof(r.slots[0])
		if len(r.slots) > 0 {
			// The slots share two backing arrays; slot 0 starts both.
			n += uintptr(cap(r.slots[0].threads))*unsafe.Sizeof(threadRec{}) + uintptr(cap(r.slots[0].needs))*4
		}
		return n
	}
	full := footprint()
	if len(s.replay.slots) != 10 || full > 18<<10 {
		t.Fatalf("the ring of a Table II node has %d slots and takes %d bytes, want 10 and at most 18 KB", len(s.replay.slots), full)
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

// TestNeedStandsInForQuotaRemaining asserts what lets the ring leave
// quotaRemaining, which allocate reads, out of its key: below the root no
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
			s.allocate(s.root, dt*int64(s.Cores))
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
			s.placeOnCores(s.allocScratch, dt)
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
