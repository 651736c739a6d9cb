package sched

import "math"

// Repeating a window. The replay ring (replay.go) records every tick of the
// last window; Repeat spares whole windows. A tick's allocation
// is a function of the scheduler's carried state, the tree's shape and the
// demands, and its growth of every counter a function of the allocation:
// when the carried state at a window boundary equals the carried state one
// boundary earlier, and the demands of the windows to come equal those of
// the window between, the windows to come have its allocations and its
// growth, tick by tick. Repeat checks exactly that, with ==, against one
// snapshot taken at the previous boundary, and where it holds moves the
// state on by m copies of the last window and the clock by m windows.
// RepeatedTick then hands the host each skipped tick's allocations from
// the ring, whose slots hold them.
//
//	carried: what the next tick reads (compared)   accumulated: moved on by m windows
//	Group.QuotaUs, PeriodUs                        Group.UsageUs, Thread.UsageUs, nowUs,
//	under a quota, the bandwidth window as           and windowUsedUs without a quota (no
//	  prepare opens it: windowUsedUs and the         tick reads it then): + m × the last
//	  age nowUs − windowStartUs, or 0 and            window's growth
//	  age mod PeriodUs once age ≥ PeriodUs         under a quota: windowStartUs + m windows,
//	tree shape, Cores, dtUs                          windowUsedUs unchanged (a translation)
//	  (the ring's layout; a new one drops the snapshot)
//
// A quota'd group's window is compared as the next tick's prepare opens
// it, not as it stands: at a boundary where its period ends, windowUsedUs
// holds the usage of a period that closed, which no tick reads, so the
// window after a quota write repeats from the first boundary that follows.
// Its growth is a translation, not a difference: the m windows are copies
// of the last one moved on in time, so the raw window they leave is the
// one at this boundary moved on by m windows, its usage unchanged. Taking
// it from the snapshot would add whatever the window at the snapshot held
// before prepare opened it. Nothing is rolled here: prepare rolls the
// window itself, and a period lengthened before the next tick must find
// it as a Step would have left it.
//
// The placement is the tick's other half: placeOnCores reads the
// allocation, the first-fit-decreasing order (a function of the
// allocation) and every Thread.LastCPU on entry, and is deterministic in
// them; nothing the allocation reads is written by it. So where every
// LastCPU at the boundary also equals the snapshot's, the placement is a
// fixed point: the windows to come are copies of the last, cores and core
// loads included, and RepeatedTick hands out the slots' cores. Where one
// does not, RepeatedTick places each tick's recorded allocation afresh
// from where the threads are, as Tick places it (placeRepeated), and the
// host asks PlacementRepeats, window by window, whether the placement has
// come back to where a window began: from that window on the copies hold
// again.
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
	valid bool
	// placed: the windows the last Repeat repeated are copies of the
	// window the slots hold, placement included (PlacementRepeats).
	placed  bool
	nowUs   int64
	groups  []groupSnap
	threads []threadSnap
}

type groupSnap struct {
	carried
	usageUs, windowUsedUs int64
}

type threadSnap struct {
	lastCPU int // the core the thread began the window the slots hold on
	usageUs int64
}

// carried is what the next tick reads of one group.
type carried struct {
	quotaUs, periodUs int64
	// Under a quota: how much of the bandwidth window is used, and how
	// old the window is, once prepare has opened the periods that are
	// due. Without one no tick reads either.
	windowUsedUs, windowAgeUs int64
}

func (g *Group) carried(nowUs int64) carried {
	c := carried{quotaUs: g.QuotaUs, periodUs: g.PeriodUs}
	if g.QuotaUs != NoQuota {
		c.windowUsedUs, c.windowAgeUs = g.windowUsedUs, nowUs-g.windowStartUs
		if c.windowAgeUs >= g.PeriodUs {
			c.windowUsedUs, c.windowAgeUs = 0, c.windowAgeUs%g.PeriodUs
		}
	}
	return c
}

// grow adds m × the growth of *c since the snapshot's *sn to both.
func grow(c, sn *int64, m int64) {
	d := *c - *sn
	*c += m * d
	*sn += m * d
}

// Repeat, called at a window boundary in place of the next tick of dtUs,
// repeats the window that ended here up to maxWindows times and returns
// how many it did, m: the clock has moved on by m windows, every
// accumulated counter by m × the last window's growth and every quota'd
// group's bandwidth window by m windows, its usage unchanged; and
// RepeatedTick(k) hands out each skipped tick k, window by window, with
// PlacementRepeats asked before each window. Off a boundary, or with
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
	m, placed := s.repeats(dtUs, maxWindows)
	if m == 0 {
		s.takeSnapshot()
		return 0
	}
	last, k := &r.last, 0
	last.placed = placed
	for i, g := range r.groups {
		sn := &last.groups[i]
		grow(&g.UsageUs, &sn.usageUs, m)
		if g.QuotaUs == NoQuota {
			grow(&g.windowUsedUs, &sn.windowUsedUs, m)
		} else {
			g.windowStartUs += m * DefaultPeriodUs
		}
		for _, t := range g.Threads {
			grow(&t.UsageUs, &last.threads[k].usageUs, m)
			k++
		}
	}
	s.nowUs += m * DefaultPeriodUs
	last.nowUs += m * DefaultPeriodUs
	return m
}

// repeats is how many windows, up to maxWindows, repeat the last one's
// allocations: 0 unless the snapshot is of the previous boundary (so every
// slot holds a tick of the window since: a layout drops the snapshot) and
// every carried value, horizon and level holds. placed reports whether every thread also begins where
// it began that window, so that the placement repeats too.
func (s *Scheduler) repeats(dtUs, maxWindows int64) (m int64, placed bool) {
	r := &s.replay
	if !r.last.valid || r.last.nowUs != s.nowUs-DefaultPeriodUs {
		return 0, false
	}
	m, placed = maxWindows, true
	k := 0
	for i, g := range r.groups {
		if g.carried(s.nowUs) != r.last.groups[i].carried {
			return 0, false
		}
		for _, t := range g.Threads {
			placed = placed && t.LastCPU == r.last.threads[k].lastCPU
			if m = min(m, s.holds(t, k, dtUs)); m < 1 {
				return 0, false
			}
			k++
		}
	}
	return m, placed
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
		sn.usageUs, sn.windowUsedUs = g.UsageUs, g.windowUsedUs
		for _, t := range g.Threads {
			last.threads[k] = threadSnap{lastCPU: t.LastCPU, usageUs: t.UsageUs}
			k++
		}
	}
}

// PlacementRepeats reports whether the window about to be repeated places
// its threads as the ring's slots hold them, as every window after it
// then does: the last Repeat found every thread where it began the window
// before, or the last window RepeatedTick placed afresh ended where it
// began. Where it returns false, RepeatedTick places that window's ticks
// afresh, and the caller hands out all of them, in order, before it asks
// again. Once true it stays true until the next Repeat.
func (s *Scheduler) PlacementRepeats() bool {
	last := &s.replay.last
	if !last.placed {
		last.placed = true
		for k, t := range s.replay.threads {
			sn := &last.threads[k]
			last.placed = last.placed && sn.lastCPU == t.LastCPU
			sn.lastCPU = t.LastCPU
		}
	}
	return last.placed
}

// RepeatedTick returns the allocations of tick k of the window the last
// Repeat repeated, in the order Tick returned them, and sets the core
// loads (CoreLoadUs, Utilization) as that tick did. Like Tick's, the
// slice is reused by the next call.
func (s *Scheduler) RepeatedTick(k int) []Alloc {
	sl := &s.replay.slots[k]
	if !s.replay.last.placed {
		return s.placeRepeated(sl)
	}
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

// placeRepeated is RepeatedTick where the placement is not yet known to
// repeat: slot sl's allocations, in its kept first-fit-decreasing order,
// placed by placeOnCores from the cores the threads are on, as Tick
// places them. The slot records the cores, which RepeatGen counts if they
// moved.
func (s *Scheduler) placeRepeated(sl *replaySlot) []Alloc {
	allocs := s.allocScratch[:0]
	for j, t := range s.replay.threads {
		if got := sl.threads[j].got; got > 0 {
			allocs = append(allocs, Alloc{Thread: t, RanUs: int64(got)})
		}
	}
	s.allocScratch = allocs
	s.placeOnCores(allocs, s.replay.dtUs, sl)
	s.recordCores(sl, false)
	return allocs
}

// RepeatedThreads returns the threads the ring's slots hold, in slot order;
// the slice is the ring's and is laid out afresh when RepeatGen moves.
func (s *Scheduler) RepeatedThreads() []*Thread { return s.replay.threads }

// RepeatGen changes whenever what RepeatedTick hands out may have changed:
// the ring was laid out again, or a tick recorded an allocation or a core
// other than the one its slot held. While it stands still and
// PlacementRepeats holds, RepeatedTick(k) returns the same allocations, to
// the same RepeatedThreads, and leaves the same core loads.
func (s *Scheduler) RepeatGen() uint64 { return s.replay.outGen }
