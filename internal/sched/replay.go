package sched

import "math"

// The previous tick and the replay ring. A controller steps once per
// second against 100 ms bandwidth windows, and within a window a tick
// often meets what the tick before it met: while no quota binds, need =
// min(demand, quotaRemaining()) holds still. Then the answers the previous
// computed tick left behind, its allocation in Thread.got and its
// placement in Thread.LastCPU and the core loads, stand as they are, and
// Tick skips allocate, and placeOnCores, where everything that function
// would read compares equal. Nothing tells the memo that an input moved:
// it looks, every tick, at every value.
//
//	what the skipped code reads             the previous tick left it in
//	tree shape (who is whose child, order)  replay.gen (prevOK)
//	dtUs (capacity, one-core bound, keys)   replay.dtUs (prevOK)
//	Scheduler.Cores (capacity)              replay.cores (prevOK)
//	allocate: Group.need of every group     Group.need (prepare compares)
//	allocate: Thread.want of every thread   Thread.want (prepare compares)
//	placeOnCores: Thread.got                Thread.got, equal when the above are
//	placeOnCores: Thread.LastCPU on entry   prevSlot's threadRec.core
//
// allocate is skipped when the first five rows match, placeOnCores when
// the last does too. The previous tick's placement stands without a record
// of its entry: first-fit-decreasing with affinity, started from the cores
// it produced itself, is a fixed point. Induct over the order: if every
// thread before the i-th chose the core it chose last tick, the i-th meets
// the loads it met then; either its last core had room then, and has room
// now, or it was sent to the lowest-index least-loaded core, which it
// finds again. So it suffices that every thread that runs still comes
// from the core the previous tick gave it (prevSlot keeps them) and that
// no RepeatedTick, which writes the core loads, ran since. Repeat writes
// neither: the boundary it repeats from follows the tick the ring's last
// slot recorded, and it leaves that tick's loads and cores in place.
//
// The ring is Repeat's record of the last window (repeat.go): one slot per
// tick of a window, each holding what its tick read (every want, every
// LastCPU on entry) and answered (every got and core). Every tick records
// its slot; Tick takes no answer from one. A slot also keeps the
// first-fit-decreasing order of its allocation (replaySlot.order), which
// is a function of the allocation alone: a tick whose allocation equals
// the one its slot recorded places in that order without sorting.
//
// quotaRemaining, which allocate also reads, is not in the list because
// need stands in for it: a group below the root is never handed more than
// its need, and its need is at most what remains of its quota, so the
// clamp in allocate cannot bind there; at the root it binds exactly when
// it has already bound need (TestNeedStandsInForQuotaRemaining).

// replayMaxTicks bounds the ring: a tick shorter than 1/100 of a window
// (1 ms) is not recorded, so the ring's memory does not scale with 1/dt.
const replayMaxTicks = 100

// threadRec is one thread's part of a slot: the two inputs and the two
// outputs of its tick. Sixteen bits hold them whenever a slot is recorded
// (0 ≤ got ≤ want ≤ dtUs ≤ MaxInt16, cores ≤ MaxInt16); a tick with an
// input that does not fit leaves its slot invalid.
type threadRec struct {
	want, lastCPU int16
	got, core     int16
}

// replaySlot is one tick of a window.
type replaySlot struct {
	valid   bool        // the outputs belong to the inputs
	ordered bool        // order belongs to the recorded allocation
	threads []threadRec // group by group in replay.groups order, each group's Threads in turn
	order   []uint16    // the recorded allocation's first-fit-decreasing order, as indexes of the tick's allocations
}

type replay struct {
	// What the ring below is laid out for; a tick that finds one of them
	// moved lays it out again, empty.
	gen   uint64
	dtUs  int64
	cores int

	groups  []*Group     // the tree in pre-order
	threads []*Thread    // group by group in groups order, each group's Threads in turn: a slot's threads
	slots   []replaySlot // one per tick of a window, none when dtUs is not recorded
	last    snapshot     // the scheduler at the last window boundary Repeat passed (repeat.go)

	// outGen counts the changes to what the slots answer: a new layout, or
	// a slot whose recorded got or core changed (RepeatGen).
	outGen uint64

	// The previous computed tick: its wants and needs are still in the
	// threads and groups when prepare compares them, its allocation in
	// Thread.got, its placement in Thread.LastCPU and the core loads.
	prevOK   bool        // the ring was not laid out since: the tree shape, dtUs and Cores are its
	prevSlot *replaySlot // while prevOK, the slot holding its placement; nil if it had none, or RepeatedTick ran since

	// Ticks whose allocation, and placement, the previous tick answered.
	// Only the tests read them.
	prevGot, prevCores uint64
}

// replayLookup decides whether the previous computed tick answers the tick
// prepare has just set up, and stores the tick's inputs in its slot of the
// ring. same reports that prepare found every want and need as the
// previous tick left them: then that tick answers the allocation (prev),
// and the placement too (placed) where every thread that runs still comes
// from the core it was placed on. The slot is nil when the tick cannot be
// recorded: ticks of dtUs are not recorded, or an input does not fit the
// slot's integers (what was cut off could later equal a value the outputs
// were not computed for).
func (s *Scheduler) replayLookup(dtUs int64, same bool) (sl *replaySlot, prev, placed bool) {
	r := &s.replay
	s.layoutReplay(dtUs)
	prev = same && r.prevOK
	placed = prev && r.prevSlot != nil
	if len(r.slots) > 0 {
		sl = &r.slots[s.nowUs/dtUs%int64(len(r.slots))]
	}
	fits := true
	for k, t := range r.threads {
		if placed && t.got > 0 && int(r.prevSlot.threads[k].core) != t.LastCPU {
			placed = false
		}
		if sl != nil {
			rec := &sl.threads[k]
			rec.want = narrow(t.want, &fits)
			rec.lastCPU = narrow(int64(t.LastCPU), &fits)
		}
	}
	if !fits {
		sl.valid, sl = false, nil
	}
	if prev {
		r.prevGot++
	}
	if placed {
		r.prevCores++
	}
	return sl, prev, placed
}

// narrow cuts v down to a slot's integer and clears fits if that lost
// anything.
func narrow(v int64, fits *bool) int16 {
	n := int16(v)
	if int64(n) != v {
		*fits = false
	}
	return n
}

// layoutReplay sizes an empty ring for the current tree and tick length,
// unless it is laid out for them already: fresh backing arrays of exactly
// the size needed, so a tree that shrank gives its memory back.
func (s *Scheduler) layoutReplay(dtUs int64) {
	r := &s.replay
	if r.groups != nil && r.gen == s.gen && r.dtUs == dtUs && r.cores == s.Cores {
		return
	}
	r.gen, r.dtUs, r.cores = s.gen, dtUs, s.Cores
	r.outGen++
	r.prevOK = false
	r.groups = appendPreorder(make([]*Group, 0, countGroups(s.root)), s.root)
	r.threads = make([]*Thread, 0, len(s.threads))
	for _, g := range r.groups {
		r.threads = append(r.threads, g.Threads...)
	}
	r.slots, r.last = nil, snapshot{}
	n := DefaultPeriodUs / dtUs
	if DefaultPeriodUs%dtUs != 0 || n > replayMaxTicks || dtUs > math.MaxInt16 || len(s.coreLoadUs) > math.MaxInt16 {
		return
	}
	nt, ng := len(s.threads), len(r.groups)
	threads, orders := make([]threadRec, int(n)*nt), make([]uint16, int(n)*nt)
	r.slots = make([]replaySlot, n)
	for i := range r.slots {
		r.slots[i] = replaySlot{
			threads: threads[i*nt : (i+1)*nt],
			order:   orders[i*nt : i*nt : (i+1)*nt],
		}
	}
	r.last = snapshot{groups: make([]groupSnap, ng), threads: make([]threadSnap, nt)}
}

func countGroups(g *Group) int {
	n := 1
	for _, c := range g.Children {
		n += countGroups(c)
	}
	return n
}

func appendPreorder(dst []*Group, g *Group) []*Group {
	dst = append(dst, g)
	for _, c := range g.Children {
		dst = appendPreorder(dst, c)
	}
	return dst
}

// replayCores writes the placement sl recorded, in place of placeOnCores:
// allocs lists the allocations sl recorded, in its order.
func (s *Scheduler) replayCores(sl *replaySlot, allocs []Alloc) {
	load := s.coreLoadUs
	clear(load)
	j := 0
	for _, rec := range sl.threads {
		if rec.got > 0 {
			a := &allocs[j]
			j++
			a.Core = int(rec.core)
			a.Thread.LastCPU = a.Core
			load[a.Core] += a.RanUs
		}
	}
}

// recordGot stores in sl the allocation each thread got this tick and
// reports whether one moved; then the order sl kept is no longer its.
func (s *Scheduler) recordGot(sl *replaySlot) (changed bool) {
	for k, t := range s.replay.threads {
		rec := &sl.threads[k]
		got := int16(t.got)
		changed = changed || rec.got != got
		rec.got = got
	}
	sl.ordered = sl.ordered && !changed
	return changed
}

// recordCores stores in sl the core each thread is on after the tick, and
// counts in outGen a change of one, or of what else the caller recorded
// (changed).
func (s *Scheduler) recordCores(sl *replaySlot, changed bool) {
	for k, t := range s.replay.threads {
		rec := &sl.threads[k]
		core := int16(t.LastCPU)
		changed = changed || rec.core != core
		rec.core = core
	}
	if changed {
		s.replay.outGen++
	}
}
