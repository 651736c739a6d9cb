package sched

import "math"

// Repeating a window. The replay ring (replay.go) spares one tick its
// allocate and placeOnCores when tick k of a window meets what tick k of
// the window before met; Repeat spares whole windows. A tick is a function
// of the scheduler's carried state, the tree's shape and the demands: when
// the carried state at a window boundary equals the carried state one
// boundary earlier, and the demands of the windows to come equal those of
// the window between, the windows to come are copies of it, tick by tick:
// the same allocations, the same placement, the same growth of every
// counter. Repeat checks exactly that, with ==, against one snapshot taken
// at the previous boundary, and where it holds adds the growth of the last
// window, m times, to the accumulated counters and moves the clock on by m
// windows. RepeatedTick then hands the host each skipped tick's
// allocations from the ring, whose slots hold them.
//
//	carried: what a tick reads (compared)        accumulated: what it only adds to (m × the window's growth)
//	Group.QuotaUs, PeriodUs, Weight              Group.UsageUs, windowStartUs, and windowUsedUs
//	under a quota: windowUsedUs, the window's      without a quota, where no tick reads it
//	  age nowUs − windowStartUs
//	Thread.LastCPU                               Thread.UsageUs
//	tree shape, Cores, dtUs                      nowUs
//	  (the ring's layout; a new one drops the snapshot)
//
// The demands are not state but promises: every thread's Until must cover
// the m windows, and its level must be the one every slot recorded. A
// thread with an OnRun is never repeated, because what it is told may move
// its demand (workload.Bench). The core loads and the last tick length are
// not carried: Tick writes them before any read, and the host reads them
// back per tick from what RepeatedTick leaves.

// snapshot is the scheduler as the last window boundary Repeat passed
// found it, in the ring's order: groups in pre-order, threads group by
// group. It is sized with the ring and dropped when the ring is laid out
// again.
type snapshot struct {
	valid   bool
	nowUs   int64
	groups  []groupSnap
	threads []threadSnap
}

type groupSnap struct {
	carried
	acc [3]int64 // the counters accumulated lists, in its order
}

type threadSnap struct {
	lastCPU int
	usageUs int64
}

// carried is what a tick reads of one group.
type carried struct {
	quotaUs, periodUs, weight int64
	// Under a quota: how much of the bandwidth window is used, and how
	// old the window is. Without one no tick reads either.
	windowUsedUs, windowAgeUs int64
}

func (g *Group) carried(nowUs int64) carried {
	c := carried{quotaUs: g.QuotaUs, periodUs: g.PeriodUs, weight: g.Weight}
	if g.QuotaUs != NoQuota {
		c.windowUsedUs, c.windowAgeUs = g.windowUsedUs, nowUs-g.windowStartUs
	}
	return c
}

// accumulated lists what a tick only adds to. Under a quota windowUsedUs is
// carried as well, so equal at both boundaries: its growth is zero.
func (g *Group) accumulated() [3]*int64 {
	return [3]*int64{&g.UsageUs, &g.windowStartUs, &g.windowUsedUs}
}

// Repeat, called at a window boundary in place of the next tick of dtUs,
// repeats the window that ended here up to maxWindows times and returns
// how many it did: the clock has moved on by that many windows, and
// RepeatedTick(k) holds each skipped tick k. Off a boundary, or with
// maxWindows < 1, it returns 0 and does nothing. When the window does not
// repeat it returns 0 after taking the snapshot the next boundary
// compares.
//
// The caller promises what makes the snapshot stand for the window that
// follows it: that maxWindows ≥ 1 whole windows of ticks of dtUs do follow
// the call, with nothing but Tick and Repeat touching the scheduler before
// the next boundary.
func (s *Scheduler) Repeat(dtUs, maxWindows int64) int64 {
	if maxWindows < 1 || s.nowUs%DefaultPeriodUs != 0 {
		return 0
	}
	s.layoutReplay(dtUs)
	r := &s.replay
	if len(r.slots) == 0 {
		return 0
	}
	m := s.repeats(dtUs, maxWindows)
	if m == 0 {
		s.takeSnapshot()
		return 0
	}
	last, k := &r.last, 0
	for i, g := range r.groups {
		sn := &last.groups[i]
		for j, c := range g.accumulated() {
			d := *c - sn.acc[j]
			*c += m * d
			sn.acc[j] += m * d
		}
		for _, t := range g.Threads {
			d := t.UsageUs - last.threads[k].usageUs
			t.UsageUs += m * d
			last.threads[k].usageUs += m * d
			k++
		}
	}
	s.nowUs += m * DefaultPeriodUs
	last.nowUs += m * DefaultPeriodUs
	return m
}

// repeats is how many windows, up to maxWindows, repeat the last one: 0
// unless the snapshot is of the previous boundary, every slot holds a tick
// of the window since, and every carried value, horizon and level holds.
func (s *Scheduler) repeats(dtUs, maxWindows int64) int64 {
	r := &s.replay
	if !r.last.valid || r.last.nowUs != s.nowUs-DefaultPeriodUs {
		return 0
	}
	for i := range r.slots {
		if !r.slots[i].valid {
			return 0
		}
	}
	m, k := maxWindows, 0
	for i, g := range r.groups {
		if g.carried(s.nowUs) != r.last.groups[i].carried {
			return 0
		}
		for _, t := range g.Threads {
			if t.LastCPU != r.last.threads[k].lastCPU {
				return 0
			}
			if m = min(m, s.holds(t, k, dtUs)); m < 1 {
				return 0
			}
			k++
		}
	}
	return m
}

// holds is how many whole windows thread t, the ring's k-th, keeps asking
// for what every slot recorded.
func (s *Scheduler) holds(t *Thread, k int, dtUs int64) int64 {
	until := int64(math.MaxInt64)
	switch {
	case t.OnRun != nil || t.Demand != nil && t.Until == nil:
		return 0
	case t.Demand != nil:
		until = t.Until(s.nowUs)
	}
	want := t.demandUs(s.nowUs, dtUs)
	for i := range s.replay.slots {
		if int64(s.replay.slots[i].threads[k].want) != want {
			return 0
		}
	}
	return (until - s.nowUs) / DefaultPeriodUs
}

// takeSnapshot records the scheduler at this boundary.
func (s *Scheduler) takeSnapshot() {
	last, k := &s.replay.last, 0
	last.valid, last.nowUs = true, s.nowUs
	for i, g := range s.replay.groups {
		sn := &last.groups[i]
		sn.carried = g.carried(s.nowUs)
		for j, c := range g.accumulated() {
			sn.acc[j] = *c
		}
		for _, t := range g.Threads {
			last.threads[k] = threadSnap{lastCPU: t.LastCPU, usageUs: t.UsageUs}
			k++
		}
	}
}

// RepeatedTick returns the allocations of tick k of the window the last
// Repeat repeated, in the order Tick returned them, and sets the core
// loads (CoreLoadUs, Utilization) as that tick did. Like Tick's, the slice
// is reused by the next call.
func (s *Scheduler) RepeatedTick(k int) []Alloc {
	sl := &s.replay.slots[k]
	allocs, load := s.allocScratch[:0], s.coreLoadUs
	clear(load)
	for j, t := range s.replay.threads {
		if rec := sl.threads[j]; rec.got > 0 {
			allocs = append(allocs, Alloc{Thread: t, RanUs: int64(rec.got), Core: int(rec.core)})
			load[rec.core] += int64(rec.got)
		}
	}
	s.allocScratch = allocs
	return allocs
}

// RepeatedThreads returns the threads the ring's slots hold, in slot order;
// the slice is the ring's and is laid out afresh when RepeatGen moves.
func (s *Scheduler) RepeatedThreads() []*Thread { return s.replay.threads }

// RepeatGen changes whenever what RepeatedTick hands out may have changed:
// the ring was laid out again, or a tick recorded an allocation or a core
// other than the one its slot held. While it stands still, RepeatedTick(k)
// returns the same allocations, to the same RepeatedThreads, and leaves the
// same core loads.
func (s *Scheduler) RepeatGen() uint64 { return s.replay.outGen }
