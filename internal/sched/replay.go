package sched

import "math"

// The previous tick and the replay ring. A controller steps once per
// second against 100 ms bandwidth windows, and within a window a tick
// often meets what the tick before it met: while no quota binds, need =
// min(demand, quotaRemaining()) holds still. Then the allocation the
// previous computed tick left in Thread.got stands as it is, and Tick
// skips allocate where everything that function would read compares
// equal. Nothing tells the memo that an input moved: it looks, every
// tick, at every value.
//
//	what allocate reads                     the previous tick left it in
//	tree shape (who is whose child, order)  replay.gen (prevOK)
//	dtUs (capacity, one-core bound)         replay.dtUs (prevOK)
//	Scheduler.Cores (capacity)              replay.cores (prevOK)
//	Group.need of every group               Group.need (prepare compares)
//	Thread.want of every thread             Thread.want (prepare compares)
//
// settle and placeOnCores run on every tick: the placement also reads
// every Thread.LastCPU on entry, which no memo keeps.
//
// The ring is Repeat's record of the last window (repeat.go): one slot per
// tick of a window, each holding what its tick read (every want) and
// answered (every got and core). Every tick records its slot; Tick takes
// no answer from one. A slot also keeps the first-fit-decreasing order of
// its allocation (replaySlot.order), which is a function of the
// allocation alone: a tick whose allocation equals the one its slot
// recorded places in that order without sorting.
//
// quotaRemaining, which allocate also reads, is not in the list because
// need stands in for it: a group below the root is never handed more than
// its need, and its need is at most what remains of its quota, so the
// clamp in allocate cannot bind there; at the root it binds exactly when
// it has already bound need (TestNeedStandsInForQuotaRemaining).

// replayMaxTicks bounds the ring: a tick shorter than 1/100 of a window
// (1 ms) is not recorded, so the ring's memory does not scale with 1/dt.
const replayMaxTicks = 100

// threadRec is one thread's part of a slot: the input and the two outputs
// of its tick. Sixteen bits hold each by construction, because a ring is
// laid out only where dtUs and Cores fit them (layoutReplay): 0 ≤ got ≤
// want ≤ dtUs ≤ MaxInt16, and core < Cores ≤ MaxInt16.
type threadRec struct {
	want, got, core int16
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
	// Thread.got.
	prevOK bool // the ring was not laid out since: the tree shape, dtUs and Cores are its

	// Ticks whose allocation the previous tick answered. Only the tests
	// read it.
	prevGot uint64
}

// replayLookup decides whether the previous computed tick answers the
// allocation of the tick prepare has just set up (prev: prepare found
// every want and need as that tick left them), and stores the tick's
// wants in its slot of the ring. The slot is nil when ticks of dtUs are
// not recorded.
func (s *Scheduler) replayLookup(dtUs int64, same bool) (sl *replaySlot, prev bool) {
	r := &s.replay
	s.layoutReplay(dtUs)
	prev = same && r.prevOK
	if prev {
		r.prevGot++
	}
	if len(r.slots) == 0 {
		return nil, prev
	}
	sl = &r.slots[s.nowUs/dtUs%int64(len(r.slots))]
	for k, t := range r.threads {
		sl.threads[k].want = int16(t.want)
	}
	return sl, prev
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
