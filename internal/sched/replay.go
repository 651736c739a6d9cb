package sched

import "math"

// The replay ring and the previous tick. A controller steps once per
// second against 100 ms bandwidth windows, so between two of its steps a
// node runs ten windows that are copies of each other: tick k of a window
// meets the demands, the remaining quotas and the placement tick k of the
// window before met. The ring keeps, per tick of a window, what allocate
// (with waterfill) and placeOnCores read and what they answered, and Tick
// takes the answer of either from it when everything that function would
// read compares equal. Within a window, too, a tick often meets what the
// tick before it met: while no quota binds, need = min(demand,
// quotaRemaining()) holds still. Then the answers the previous computed
// tick left behind stand as they are. Nothing tells either memory that an
// input moved: each looks, every tick, at every value.
//
//	what the skipped code reads             the ring keeps it in     the previous tick left it in
//	tree shape (who is whose child, order)  replay.gen               replay.gen (prevOK)
//	dtUs (capacity, one-core bound, keys)   replay.dtUs              replay.dtUs (prevOK)
//	Scheduler.Cores (capacity)              replay.cores             replay.cores (prevOK)
//	allocate: Group.Weight of every group   replay.weights           replay.weights
//	allocate: Group.need of every group     replaySlot.needs         Group.need (prepare compares)
//	allocate: Thread.want of every thread   threadRec.want           Thread.want (prepare compares)
//	placeOnCores: Thread.got                equal when the above are Thread.got
//	placeOnCores: Thread.LastCPU on entry   threadRec.lastCPU        prevSlot's threadRec.core
//
// The placement of a loaded node can cycle with a period longer than one
// window while its allocations repeat, hence the two answers: allocate is
// skipped when the first six rows match, placeOnCores when the last does
// too. The previous tick's placement stands without a record of its
// entry: first-fit-decreasing with affinity, started from the cores it
// produced itself, is a fixed point. Induct over the order: if every
// thread before the i-th chose the core it chose last tick, the i-th meets
// the loads it met then; either its last core had room then, and has room
// now, or it was sent to the lowest-index least-loaded core, which it
// finds again. So it suffices that every thread that runs still comes
// from the core the previous tick gave it (prevSlot keeps them) and that
// no RepeatedTick, which writes the core loads, ran since. Repeat writes
// neither: the boundary it repeats from follows the tick the ring's last
// slot recorded, and it leaves that tick's loads and cores in place.
//
// A slot also keeps the first-fit-decreasing order of its allocation
// (replaySlot.order), which is a function of the allocations alone: a
// tick that takes the slot's allocation places in that order without
// sorting.
//
// quotaRemaining, which allocate also reads, is not in the list because
// need stands in for it: a group below the root is never handed more than
// its need, and its need is at most what remains of its quota, so the
// clamp in allocate cannot bind there; at the root it binds exactly when
// it has already bound need (TestNeedStandsInForQuotaRemaining).

// replayMaxTicks bounds the ring: a tick shorter than 1/100 of a window
// (1 ms) is not replayed, so the ring's memory does not scale with 1/dt.
const replayMaxTicks = 100

// threadRec is one thread's part of a slot: the two inputs and the two
// outputs of its tick. Sixteen bits hold them whenever a slot can hit
// (0 ≤ got ≤ want ≤ dtUs ≤ MaxInt16, cores ≤ MaxInt16); what does not fit
// is compared wide and so never equals what was kept of it.
type threadRec struct {
	want, lastCPU int16
	got, core     int16
}

// replaySlot is one tick of a window.
type replaySlot struct {
	valid   bool        // the outputs belong to the inputs
	ordered bool        // order belongs to the recorded allocation
	threads []threadRec // group by group in replay.groups order, each group's Threads in turn
	needs   []int32     // one per group
	order   []uint16    // the recorded allocation's first-fit-decreasing order, as indexes of the tick's allocations
}

// source is where a tick takes an answer from: its allocation, or its
// placement.
type source uint8

const (
	fromSlot source = iota // the ring slot of this tick of the window
	fromPrev               // the previous computed tick, whose answer stands
	compute                // allocate, or placeOnCores
)

type replay struct {
	// What the ring below is laid out for; a tick that finds one of them
	// moved lays it out again, empty.
	gen   uint64
	dtUs  int64
	cores int

	groups  []*Group     // the tree in pre-order
	threads []*Thread    // group by group in groups order, each group's Threads in turn: a slot's threads
	weights []int64      // their weights at the last tick; a write to one voids every slot
	slots   []replaySlot // one per tick of a window, none when dtUs is not replayed
	last    snapshot     // the scheduler at the last window boundary Repeat passed (repeat.go)

	// outGen counts the changes to what the slots answer: a new layout, or
	// a slot whose recorded got or core replayRecord changed (RepeatGen).
	outGen uint64

	// The previous computed tick: its wants and needs are still in the
	// threads and groups when prepare compares them, its allocation in
	// Thread.got, its placement in Thread.LastCPU and the core loads.
	prevOK   bool        // the ring was not laid out since: the tree shape, dtUs and Cores are its
	prevSlot *replaySlot // while prevOK, the slot holding its placement; nil if it had none, or RepeatedTick ran since

	// Ticks whose allocation, and placement, a memory answered, by the
	// memory. Only the tests read them.
	gotFrom, coresFrom [compute]uint64
}

// replayLookup decides where the tick prepare has just set up takes its
// allocation and its placement from; same reports that prepare found every
// want and need as the previous computed tick left them. The previous
// tick answers where every input equals its own (fromPrev: nothing to
// do), else the ring slot of this tick (fromSlot), else the code itself
// (compute). The slot is looked up whatever the answer: replayLookup
// stores the tick's inputs in it, and what missed is invalid until
// replayRecord completes it. The slot is nil when the tick cannot be
// recorded: ticks of dtUs are not replayed, or an input does not fit the
// slot's integers (what was cut off would later equal a value the outputs
// were not computed for).
func (s *Scheduler) replayLookup(dtUs int64, same bool) (sl *replaySlot, got, cores source) {
	r := &s.replay
	s.layoutReplay(dtUs)
	reweighted := s.reweighted()
	prev, placed := same && r.prevOK && !reweighted, r.prevSlot
	if !prev {
		placed = nil
	}
	gotHit, coreHit := false, false
	if len(r.slots) > 0 {
		if reweighted {
			for i := range r.slots {
				r.slots[i].valid = false
			}
		}
		sl = &r.slots[s.nowUs/dtUs%int64(len(r.slots))]
		gotHit, coreHit = sl.valid, sl.valid
		fits, k := true, 0
		for i, g := range r.groups {
			if int64(sl.needs[i]) != g.need {
				sl.needs[i], gotHit = narrow[int32](g.need, &fits), false
			}
			for _, t := range g.Threads {
				rec := &sl.threads[k]
				if placed != nil && t.got > 0 && int(placed.threads[k].core) != t.LastCPU {
					placed = nil
				}
				k++
				if int64(rec.want) != t.want {
					rec.want, gotHit = narrow[int16](t.want, &fits), false
				}
				if int(rec.lastCPU) != t.LastCPU {
					rec.lastCPU, coreHit = narrow[int16](int64(t.LastCPU), &fits), false
				}
			}
		}
		coreHit = coreHit && gotHit
		sl.valid = coreHit
		sl.ordered = sl.ordered && gotHit
		if !fits {
			sl, gotHit, coreHit = nil, false, false
		}
	}
	got, cores = compute, compute
	switch {
	case prev:
		got = fromPrev
	case gotHit:
		got = fromSlot
	}
	switch {
	case prev && placed != nil:
		cores = fromPrev
	case coreHit:
		cores = fromSlot
	}
	if got != compute {
		r.gotFrom[got]++
	}
	if cores != compute {
		r.coresFrom[cores]++
	}
	return sl, got, cores
}

// reweighted reports whether a group's Weight moved since the last tick,
// and keeps the new weights for the next.
func (s *Scheduler) reweighted() bool {
	r, moved := &s.replay, false
	for i, g := range r.groups {
		if r.weights[i] != g.Weight {
			r.weights[i], moved = g.Weight, true
		}
	}
	return moved
}

// narrow cuts v down to a slot's integer and clears fits if that lost
// anything.
func narrow[T int16 | int32](v int64, fits *bool) T {
	n := T(v)
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
	r.weights = make([]int64, len(r.groups))
	for i, g := range r.groups {
		r.weights[i] = g.Weight
	}
	r.slots, r.last = nil, snapshot{}
	n := DefaultPeriodUs / dtUs
	if DefaultPeriodUs%dtUs != 0 || n > replayMaxTicks || dtUs > math.MaxInt16 || len(s.coreLoadUs) > math.MaxInt16 {
		return
	}
	nt, ng := len(s.threads), len(r.groups)
	threads, needs, orders := make([]threadRec, int(n)*nt), make([]int32, int(n)*ng), make([]uint16, int(n)*nt)
	r.slots = make([]replaySlot, n)
	for i := range r.slots {
		r.slots[i] = replaySlot{
			threads: threads[i*nt : (i+1)*nt],
			needs:   needs[i*ng : (i+1)*ng],
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

// replayGot hands every thread the allocation sl recorded, in place of
// allocate.
func (s *Scheduler) replayGot(sl *replaySlot) {
	for k, t := range s.replay.threads {
		t.got = int64(sl.threads[k].got)
	}
}

// replayCores writes the placement sl recorded, in place of placeOnCores.
// settle listed the threads that ran in the order the slot holds them.
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

// replayRecord completes sl with what allocate and placeOnCores answered
// to the inputs replayLookup stored, and counts a change of either answer
// in outGen.
func (s *Scheduler) replayRecord(sl *replaySlot) {
	changed := false
	for k, t := range s.replay.threads {
		rec := &sl.threads[k]
		got := int16(t.got)
		changed = changed || rec.got != got
		rec.got = got
	}
	s.recordCores(sl, changed)
	sl.valid = true
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
