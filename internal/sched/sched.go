// Package sched implements a discrete-time "fluid" model of the Linux
// Completely Fair Scheduler (CFS) with cgroup v2 semantics: max-min fair
// sharing between sibling groups at the default cpu.weight, and CFS
// bandwidth control (cpu.max quota/period).
//
// Instead of simulating per-core run queues at nanosecond granularity, the
// scheduler distributes the machine's CPU time for one tick (typically
// 10 ms) over the runnable threads by hierarchical max-min fairness
// (progressive filling). Over the aggregation windows a frequency
// controller observes (≥ 100 ms), this fluid allocation is exactly the
// long-run behaviour of CFS: CPU time divided equally between sibling
// cgroups of equal cpu.weight, each thread bounded by one core, and each
// group bounded by its bandwidth quota within the current period window.
// cpu.max is the only knob: the paper's controller writes nothing else,
// and every cgroup keeps the default weight.
//
// The model reproduces the phenomenon the paper builds on: with one cgroup
// per VM (as KVM/libvirt create), CFS shares time per VM, not per vCPU, so
// a 2-vCPU VM and a 4-vCPU VM receive the same total time when both are
// saturated.
package sched

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// NoQuota indicates an unlimited bandwidth quota ("max" in cpu.max).
const NoQuota = int64(-1)

// DefaultPeriodUs is the default CFS bandwidth period (100 ms), matching
// the Linux default.
const DefaultPeriodUs = int64(100_000)

// Thread is a schedulable entity (one kernel thread, e.g. one vCPU).
type Thread struct {
	ID    int
	Group *Group

	// Demand reports the fraction of the next dt microseconds the
	// thread wants to run, in [0, 1]. Nil means always runnable at 1.
	Demand func(nowUs, dtUs int64) float64

	// Until returns how long Demand holds the level it has at nowUs, as
	// workload.Source.Until does. Nil promises nothing, unless Demand is
	// nil too. Repeat reads it; Tick does not.
	Until func(nowUs int64) int64

	// OnRun, if non-nil, is invoked after each tick with the time the
	// thread actually ran and the frequency of the core it ran on. The
	// windows of a scheduler with such a thread are never repeated.
	OnRun func(nowUs, ranUs int64, coreFreqMHz int64)

	// UsageUs is the cumulative CPU time consumed, in microseconds.
	UsageUs int64

	// Cycles is the cumulative work the thread attained: per tick, the
	// time it ran times the effective frequency of its core. The host
	// that runs the scheduler keeps it; the scheduler never reads it.
	Cycles int64

	// LastCPU is the core the thread last ran on (-1 before first run).
	LastCPU int

	// demand for the current tick, in µs (internal).
	want int64
	// allocation for the current tick, in µs (internal).
	got int64
}

// Group is a node in the cgroup hierarchy. Parent, Children and Threads are
// the Scheduler's to write (NewGroup, RemoveGroup, NewThread, RemoveThread).
type Group struct {
	Name     string
	Parent   *Group
	Children []*Group
	Threads  []*Thread

	// QuotaUs is the bandwidth quota per PeriodUs, or NoQuota.
	QuotaUs  int64
	PeriodUs int64

	// UsageUs is the cumulative CPU time of the subtree (cpu.stat).
	UsageUs int64

	windowStartUs int64
	windowUsedUs  int64

	// Per-tick cache, written by prepare: the subtree's demand clamped
	// by every quota on the way down, and the share the parent's
	// waterfill handed the group (read by allocate).
	need, share int64
}

// Scheduler simulates a multi-core machine's CPU-time allocation.
type Scheduler struct {
	Cores int

	root    *Group
	nowUs   int64
	nextTID int
	threads map[int]*Thread

	// coreLoadUs holds the busy time of each core in the last tick.
	coreLoadUs []int64
	lastDtUs   int64

	// Scratch reused across Ticks so a steady-state Tick performs no
	// heap allocation (the cluster-scale benchmarks step thousands of
	// simulated machines per period, and before this reuse the fluid
	// scheduler dominated the whole control plane's allocation profile).
	allocScratch []Alloc
	keyScratch   []uint64
	entScratch   []entity
	floorScratch []uint64 // placeOnCores' bit per core

	// gen counts the changes to the tree's shape: NewGroup, RemoveGroup,
	// NewThread and RemoveThread, the only writers of Children and Threads.
	gen    uint64
	replay replay
}

// New creates a scheduler for a machine with the given number of logical
// cores. The root cgroup has no quota.
func New(cores int) *Scheduler {
	if cores <= 0 {
		panic("sched: cores must be positive")
	}
	return &Scheduler{
		Cores: cores,
		root: &Group{
			Name:     "/",
			QuotaUs:  NoQuota,
			PeriodUs: DefaultPeriodUs,
		},
		nextTID:      1,
		threads:      map[int]*Thread{},
		coreLoadUs:   make([]int64, cores),
		floorScratch: make([]uint64, (cores+63)/64),
	}
}

// Root returns the root cgroup.
func (s *Scheduler) Root() *Group { return s.root }

// NowUs returns the current simulated time in microseconds.
func (s *Scheduler) NowUs() int64 { return s.nowUs }

// NewGroup creates a child cgroup of parent with no quota. A nil parent
// means the root.
func (s *Scheduler) NewGroup(parent *Group, name string) *Group {
	if parent == nil {
		parent = s.root
	}
	g := &Group{
		Name:          name,
		Parent:        parent,
		QuotaUs:       NoQuota,
		PeriodUs:      DefaultPeriodUs,
		windowStartUs: s.nowUs,
	}
	parent.Children = append(parent.Children, g)
	s.gen++
	return g
}

// RemoveGroup detaches g (and its whole subtree) from the hierarchy. A
// group no longer in it, removed itself or with an ancestor, is an error.
func (s *Scheduler) RemoveGroup(g *Group) error {
	if g == s.root {
		return fmt.Errorf("sched: cannot remove root group")
	}
	if !s.InTree(g) {
		return fmt.Errorf("sched: group is not in the tree")
	}
	var rec func(*Group)
	rec = func(n *Group) {
		for _, t := range n.Threads {
			delete(s.threads, t.ID)
			t.Group = nil
		}
		n.Threads = nil
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(g)
	p := g.Parent
	for i, c := range p.Children {
		if c == g {
			p.Children = append(p.Children[:i], p.Children[i+1:]...)
			break
		}
	}
	g.Parent = nil
	s.gen++
	return nil
}

// InTree reports whether g is the root or hangs below it: false for a
// group removed, itself or with an ancestor, and for nil.
func (s *Scheduler) InTree(g *Group) bool {
	for ; g != s.root; g = g.Parent {
		if g == nil {
			return false
		}
	}
	return true
}

// SetQuota configures bandwidth control for g. quotaUs may be NoQuota.
func (g *Group) SetQuota(quotaUs, periodUs int64) error {
	if periodUs <= 0 {
		return fmt.Errorf("sched: period must be positive, got %d", periodUs)
	}
	if quotaUs < 0 && quotaUs != NoQuota {
		return fmt.Errorf("sched: invalid quota %d", quotaUs)
	}
	g.QuotaUs = quotaUs
	g.PeriodUs = periodUs
	return nil
}

// Path returns the slash-separated path of the group from the root.
func (g *Group) Path() string {
	if g.Parent == nil {
		return "/"
	}
	p := g.Parent.Path()
	if p == "/" {
		return "/" + g.Name
	}
	return p + "/" + g.Name
}

// NewThread creates a runnable thread in group g and returns it. The
// thread ID is unique within the scheduler.
func (s *Scheduler) NewThread(g *Group, demand func(nowUs, dtUs int64) float64) *Thread {
	if g == nil {
		g = s.root
	}
	t := &Thread{
		ID:      s.nextTID,
		Group:   g,
		Demand:  demand,
		LastCPU: -1,
	}
	s.nextTID++
	g.Threads = append(g.Threads, t)
	s.threads[t.ID] = t
	s.gen++
	return t
}

// RemoveThread removes t from the scheduler.
func (s *Scheduler) RemoveThread(t *Thread) {
	delete(s.threads, t.ID)
	g := t.Group
	for i, x := range g.Threads {
		if x == t {
			g.Threads = append(g.Threads[:i], g.Threads[i+1:]...)
			break
		}
	}
	t.Group = nil
	s.gen++
}

// Thread returns the thread with the given ID, or nil.
func (s *Scheduler) Thread(id int) *Thread { return s.threads[id] }

// CoreLoadUs returns the busy microseconds of core c during the last tick.
func (s *Scheduler) CoreLoadUs(c int) int64 { return s.coreLoadUs[c] }

// CoreUtilization returns the utilisation of core c over the last tick, in
// [0, 1]. Before the first tick it returns 0.
func (s *Scheduler) CoreUtilization(c int) float64 {
	if s.lastDtUs == 0 {
		return 0
	}
	return float64(s.coreLoadUs[c]) / float64(s.lastDtUs)
}

// Utilization returns the machine-wide utilisation over the last tick.
func (s *Scheduler) Utilization() float64 {
	if s.lastDtUs == 0 {
		return 0
	}
	var busy int64
	for _, l := range s.coreLoadUs {
		busy += l
	}
	return float64(busy) / float64(s.lastDtUs*int64(s.Cores))
}

// Alloc reports the outcome of one tick for one thread.
type Alloc struct {
	Thread *Thread
	RanUs  int64
	Core   int
}

// entity is a schedulable child of a group during one waterfill: a thread
// or a sub-group, reduced to its feasible demand and the place its
// allocation is stored (Thread.got or Group.share).
type entity struct {
	need, got int64
	dst       *int64
}

// Tick advances the simulation by dt microseconds, distributing CPU time
// over runnable threads. It returns the per-thread allocations. The caller
// is responsible for invoking thread OnRun callbacks with core
// frequencies; Tick itself updates usage counters, bandwidth windows and
// thread placement. The returned slice is reused by the next Tick, so
// callers must consume (or copy) it before advancing again.
//
// One tick walks the cgroup tree twice: prepare descends it (windows,
// demands, cached needs), allocate hands the capacity down through the
// groups that need any, and settle ascends it (usage, the allocation list
// in the order prepare met the threads), which placeOnCores then puts on
// cores. The previous computed tick, whose allocation still stands in the
// threads, stands in for allocate where every input it would read
// compares equal (replay.go). Every tick is recorded in its slot of the
// replay ring, Repeat's record of the last bandwidth window (repeat.go).
func (s *Scheduler) Tick(dtUs int64) []Alloc {
	if dtUs <= 0 {
		panic("sched: dt must be positive")
	}
	moved := s.prepare(s.root, dtUs)
	slot, prev := s.replayLookup(dtUs, moved == 0)
	if !prev {
		s.allocateTick(dtUs)
	}
	s.allocScratch = s.allocScratch[:0]
	s.settle(s.root)
	allocs := s.allocScratch
	changed := slot != nil && s.recordGot(slot)
	s.placeOnCores(allocs, dtUs, slot)
	if slot != nil {
		s.recordCores(slot, changed)
		slot.valid = true
	}
	s.replay.prevOK = true
	s.nowUs += dtUs
	s.lastDtUs = dtUs
	return allocs
}

// prepare is the tick's descent. Per group it opens the bandwidth periods
// that are due, evaluates the demands of the group's threads, and on the
// way back caches the subtree's feasible demand: its demand clamped by
// every quota on the way down. It returns 0 if every want and need it
// wrote equals the one it overwrote, which the previous computed tick
// left there.
func (s *Scheduler) prepare(g *Group, dtUs int64) (moved int64) {
	if g.QuotaUs != NoQuota {
		for s.nowUs-g.windowStartUs >= g.PeriodUs {
			g.windowStartUs += g.PeriodUs
			g.windowUsedUs = 0
		}
	}
	var need int64
	for _, t := range g.Threads {
		want := t.demandUs(s.nowUs, dtUs)
		moved |= want ^ t.want
		t.want = want
		if want > 0 {
			need += want
		}
	}
	for _, c := range g.Children {
		moved |= s.prepare(c, dtUs)
		need += c.need
	}
	need = min(need, g.quotaRemaining())
	moved |= need ^ g.need
	g.need, g.share = need, 0
	return moved
}

// demandUs is how much of the next dtUs the thread asks for.
func (t *Thread) demandUs(nowUs, dtUs int64) int64 {
	f := 1.0
	if t.Demand != nil {
		f = t.Demand(nowUs, dtUs)
	}
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return int64(f * float64(dtUs))
}

// quotaRemaining returns how much CPU time group g may still consume in
// its current bandwidth window, unconstrained groups return max.
func (g *Group) quotaRemaining() int64 {
	if g.QuotaUs == NoQuota {
		return int64(1) << 62
	}
	r := g.QuotaUs - g.windowUsedUs
	if r < 0 {
		return 0
	}
	return r
}

// allocateTick is the allocation when the previous tick does not hold it:
// every thread's got from zero, then allocate from the root. The ring's
// thread list must be laid out for the tree.
func (s *Scheduler) allocateTick(dtUs int64) {
	for _, t := range s.replay.threads {
		t.got = 0
	}
	s.allocate(s.root, dtUs*int64(s.Cores))
}

// allocate distributes capacity µs of CPU time within group g using
// max-min fairness over its children (sub-groups and direct
// threads), each entering with the need prepare cached; a thread's want is
// at most dtUs, which bounds it at one core. The entity scratch is shared
// by the whole tree: a group's waterfill has stored every result in the
// threads and sub-groups before the recursion descends.
func (s *Scheduler) allocate(g *Group, capacity int64) {
	if q := g.quotaRemaining(); capacity > q {
		capacity = q
	}
	if capacity <= 0 {
		return
	}
	if len(g.Children) == 0 && len(g.Threads) == 1 {
		// A lone thread (a vCPU or emulator leaf): the one-entity
		// waterfill is min(need, capacity).
		t := g.Threads[0]
		t.got = min(t.want, capacity)
		return
	}
	ents := s.entScratch[:0]
	for _, t := range g.Threads {
		if t.want > 0 {
			ents = append(ents, entity{need: t.want, dst: &t.got})
		}
	}
	for _, c := range g.Children {
		if c.need > 0 {
			ents = append(ents, entity{need: c.need, dst: &c.share})
		}
	}
	s.entScratch = ents
	waterfill(ents, capacity)
	for _, c := range g.Children {
		if c.share > 0 {
			s.allocate(c, c.share)
		}
	}
}

// waterfill distributes capacity among entities by max-min fairness with
// exact integer conservation: Σ got ≤ capacity, got ≤ need, and no entity
// can gain without another losing. Each round offers every unsatisfied
// entity an equal share of what is left, and at least 1 µs, in order, so a
// remainder smaller than the entities goes to the first of them. Every
// gain is stored through the entity's dst at once, so the slice can be
// compacted in place to the still-unsatisfied entities, in order, round
// after round.
func waterfill(active []entity, capacity int64) {
	for capacity > 0 && len(active) > 0 {
		share := max(capacity/int64(len(active)), 1)
		n := 0
		for i := range active {
			e := &active[i]
			if give := min(e.need-e.got, share, capacity); give > 0 {
				e.got += give
				*e.dst = e.got
				capacity -= give
			}
			if e.got < e.need {
				active[n] = *e
				n++
			}
		}
		active = active[:n]
	}
}

// settle is the tick's ascent. Per group it records the usage of the
// group's threads and lists their allocations (threads before sub-groups,
// the order prepare met them) for the placement to put on cores, and folds
// the subtree's usage into the group and its bandwidth window. It returns
// the subtree's usage.
func (s *Scheduler) settle(g *Group) int64 {
	var got int64
	for _, t := range g.Threads {
		if t.got < 0 {
			panic("sched: negative allocation")
		}
		if t.got == 0 {
			continue
		}
		t.UsageUs += t.got
		got += t.got
		s.allocScratch = append(s.allocScratch, Alloc{Thread: t, RanUs: t.got})
	}
	for _, c := range g.Children {
		got += s.settle(c)
	}
	g.UsageUs += got
	g.windowUsedUs += got
	return got
}

// placeOnCores assigns each allocation to a core for the tick. Threads
// prefer their previous core if it has room (models CFS affinity: loaded
// threads migrate rarely); otherwise they go to the least-loaded core,
// lowest index first.
func (s *Scheduler) placeOnCores(allocs []Alloc, dtUs int64, sl *replaySlot) {
	load := s.coreLoadUs
	clear(load)
	keys, mask := s.ffdOrder(allocs, dtUs, sl)
	// atFloor holds a bit per core at the least load, the floor, but for
	// those placed on since: loads only grow within a tick, so while one
	// is left the lowest is the least-loaded core, lowest index first.
	// Words below w are empty; once every word is, the floor has risen
	// and is found again.
	atFloor, w := s.floorScratch, len(s.floorScratch)
	clear(atFloor)
	for _, k := range keys {
		a := &allocs[k&mask]
		t := a.Thread
		core := t.LastCPU
		if core < 0 || core >= len(load) || load[core]+a.RanUs > dtUs {
			for w < len(atFloor) && atFloor[w] == 0 {
				w++
			}
			if w == len(atFloor) {
				floor := slices.Min(load)
				for c, l := range load {
					if l == floor {
						atFloor[c>>6] |= 1 << (c & 63)
					}
				}
				for w = 0; atFloor[w] == 0; w++ {
				}
			}
			core = w<<6 | bits.TrailingZeros64(atFloor[w])
		}
		load[core] += a.RanUs
		atFloor[core>>6] &^= 1 << (core & 63)
		t.LastCPU = core
		a.Core = core
	}
}

// ffdOrder leaves the indexes of allocs in first-fit-decreasing order
// (largest allocation first, ties in allocation order) in the mask bits
// of the keys it returns. The tick's ring slot, if it has one, keeps the
// order; where it holds it already (replaySlot.ordered), the order is
// copied, not sorted.
func (s *Scheduler) ffdOrder(allocs []Alloc, dtUs int64, sl *replaySlot) (keys []uint64, mask uint64) {
	// Packing (dtUs − RanUs, index) into one integer per allocation turns
	// that stable descending order into a plain ascending sort (RanUs ≤
	// dtUs: no thread outruns one core). The keys are distinct, so where
	// the sort starts from does not change where it ends: starting from
	// the last order, still in the mask bits of the scratch, leaves it
	// little to do while allocations are steady.
	shift := bits.Len(uint(len(allocs)))
	mask = uint64(1)<<shift - 1
	keys = s.keyScratch
	if len(keys) != len(allocs) {
		keys = keys[:0]
		for i := range allocs {
			keys = append(keys, uint64(i))
		}
		s.keyScratch = keys
	}
	if sl != nil && sl.ordered {
		for j, i := range sl.order {
			keys[j] = uint64(i)
		}
		return keys, mask
	}
	for j, k := range keys {
		keys[j] = uint64(dtUs-allocs[k&mask].RanUs)<<shift | k&mask
	}
	slices.Sort(keys)
	if sl != nil && len(keys) <= math.MaxUint16+1 {
		sl.order = sl.order[:len(keys)]
		for j, k := range keys {
			sl.order[j] = uint16(k & mask)
		}
		sl.ordered = true
	}
	return keys, mask
}
