// Package sched implements a discrete-time "fluid" model of the Linux
// Completely Fair Scheduler (CFS) with cgroup v2 semantics: hierarchical
// weighted fair sharing between groups and CFS bandwidth control
// (cpu.max quota/period).
//
// Instead of simulating per-core run queues at nanosecond granularity, the
// scheduler distributes the machine's CPU time for one tick (typically
// 10 ms) over the runnable threads by hierarchical weighted max-min
// fairness (progressive filling). Over the aggregation windows a frequency
// controller observes (≥ 100 ms), this fluid allocation is exactly the
// long-run behaviour of CFS: CPU time divided between sibling cgroups in
// proportion to cpu.weight, each thread bounded by one core, and each
// group bounded by its bandwidth quota within the current period window.
//
// The model reproduces the phenomenon the paper builds on: with one cgroup
// per VM (as KVM/libvirt create), CFS shares time per VM, not per vCPU, so
// a 2-vCPU VM and a 4-vCPU VM receive the same total time when both are
// saturated.
package sched

import (
	"fmt"
	"math/bits"
	"slices"
)

// DefaultWeight is the default cpu.weight of a cgroup.
const DefaultWeight = 100

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

	// Weight is the cpu.weight (1..10000, default 100).
	Weight int64

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
			Weight:   DefaultWeight,
			QuotaUs:  NoQuota,
			PeriodUs: DefaultPeriodUs,
		},
		nextTID:    1,
		threads:    map[int]*Thread{},
		coreLoadUs: make([]int64, cores),
	}
}

// Root returns the root cgroup.
func (s *Scheduler) Root() *Group { return s.root }

// NowUs returns the current simulated time in microseconds.
func (s *Scheduler) NowUs() int64 { return s.nowUs }

// NewGroup creates a child cgroup of parent with the default weight and no
// quota. A nil parent means the root.
func (s *Scheduler) NewGroup(parent *Group, name string) *Group {
	if parent == nil {
		parent = s.root
	}
	g := &Group{
		Name:          name,
		Parent:        parent,
		Weight:        DefaultWeight,
		QuotaUs:       NoQuota,
		PeriodUs:      DefaultPeriodUs,
		windowStartUs: s.nowUs,
	}
	parent.Children = append(parent.Children, g)
	s.gen++
	return g
}

// RemoveGroup detaches g (and its whole subtree) from the hierarchy.
func (s *Scheduler) RemoveGroup(g *Group) error {
	if g == s.root {
		return fmt.Errorf("sched: cannot remove root group")
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
// or a sub-group, reduced to its weight, its feasible demand and the place
// its allocation is stored (Thread.got or Group.share).
type entity struct {
	weight, need, got int64
	dst               *int64
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
// in the order prepare met the threads). Where the replay
// ring (replay.go) holds this tick of the bandwidth window with the inputs
// prepare has just computed, the allocations it recorded stand in for
// allocate, and the placement for placeOnCores if the threads also come
// from the cores they came from then.
func (s *Scheduler) Tick(dtUs int64) []Alloc {
	if dtUs <= 0 {
		panic("sched: dt must be positive")
	}
	s.prepare(s.root, dtUs)
	slot, gotHit, coreHit := s.replayLookup(dtUs)
	if gotHit {
		s.replayGot(slot)
	} else {
		s.allocate(s.root, dtUs*int64(s.Cores))
	}
	s.allocScratch = s.allocScratch[:0]
	s.settle(s.root)
	allocs := s.allocScratch
	if coreHit {
		s.replayCores(slot, allocs)
	} else {
		s.placeOnCores(allocs, dtUs)
		if slot != nil {
			s.replayRecord(slot)
		}
	}
	s.nowUs += dtUs
	s.lastDtUs = dtUs
	return allocs
}

// prepare is the tick's descent. Per group it opens the bandwidth periods
// that are due, evaluates the demands of the group's threads, and on the
// way back caches the subtree's feasible demand: its demand clamped by
// every quota on the way down.
func (s *Scheduler) prepare(g *Group, dtUs int64) {
	if g.QuotaUs != NoQuota {
		for s.nowUs-g.windowStartUs >= g.PeriodUs {
			g.windowStartUs += g.PeriodUs
			g.windowUsedUs = 0
		}
	}
	var need int64
	for _, t := range g.Threads {
		t.want = t.demandUs(s.nowUs, dtUs)
		t.got = 0
		if t.want > 0 {
			need += t.want
		}
	}
	for _, c := range g.Children {
		s.prepare(c, dtUs)
		need += c.need
	}
	g.need, g.share = min(need, g.quotaRemaining()), 0
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

// allocate distributes capacity µs of CPU time within group g using
// weighted max-min fairness over its children (sub-groups and direct
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
			ents = append(ents, entity{weight: DefaultWeight, need: t.want, dst: &t.got})
		}
	}
	for _, c := range g.Children {
		if c.need > 0 {
			w := c.Weight
			if w <= 0 {
				w = DefaultWeight
			}
			ents = append(ents, entity{weight: w, need: c.need, dst: &c.share})
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

// waterfill distributes capacity among entities by weighted max-min
// fairness with exact integer conservation: Σ got ≤ capacity, got ≤ need,
// and no entity can gain without another losing. Every gain is stored
// through the entity's dst at once, so the slice can be compacted in place
// to the still-unsatisfied entities, in order, round after round.
func waterfill(active []entity, capacity int64) {
	var sumW int64
	for i := range active {
		sumW += active[i].weight
	}
	for capacity > 0 && len(active) > 0 {
		snapshot := capacity
		progress := false
		n, nextW := 0, int64(0)
		for i := range active {
			e := &active[i]
			give := min(e.need-e.got, snapshot*e.weight/sumW, capacity)
			if give > 0 {
				e.got += give
				*e.dst = e.got
				capacity -= give
				progress = true
			}
			if e.got < e.need {
				active[n] = *e
				n++
				nextW += e.weight
			}
		}
		active, sumW = active[:n], nextW
		if !progress {
			// Integer shares rounded to zero: hand out the
			// remainder one microsecond at a time, highest
			// weight first. Stable insertion sort: same order as
			// sort.SliceStable by descending weight, without its
			// closure and swapper allocations.
			for i := 1; i < len(active); i++ {
				e := active[i]
				j := i - 1
				for j >= 0 && active[j].weight < e.weight {
					active[j+1] = active[j]
					j--
				}
				active[j+1] = e
			}
			for capacity > 0 && len(active) > 0 {
				n := 0
				for i := range active {
					e := &active[i]
					if capacity > 0 {
						e.got++
						*e.dst = e.got
						capacity--
					}
					if e.got < e.need {
						active[n] = *e
						n++
					}
				}
				active = active[:n]
			}
		}
	}
}

// settle is the tick's ascent. Per group it records the usage of the
// group's threads and lists their allocations (threads before sub-groups,
// the order prepare met them), and folds the subtree's usage into the
// group and its bandwidth window. It returns the subtree's usage.
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
// threads migrate rarely); otherwise they go to the least-loaded core.
func (s *Scheduler) placeOnCores(allocs []Alloc, dtUs int64) {
	load := s.coreLoadUs
	clear(load)
	// Largest allocations first gives first-fit-decreasing packing, ties
	// in allocation order. Packing (dtUs − RanUs, index) into one integer
	// per allocation turns that stable descending order into a plain
	// ascending sort (RanUs ≤ dtUs: no thread outruns one core). The keys
	// are distinct, so where the sort starts from does not change where it
	// ends: starting from the last tick's order, still in the low bits of
	// the scratch, leaves it little to do while allocations are steady.
	shift := bits.Len(uint(len(allocs)))
	mask := uint64(1)<<shift - 1
	keys := s.keyScratch
	if len(keys) != len(allocs) {
		keys = keys[:0]
		for i := range allocs {
			keys = append(keys, uint64(i))
		}
		s.keyScratch = keys
	}
	for j, k := range keys {
		keys[j] = uint64(dtUs-allocs[k&mask].RanUs)<<shift | k&mask
	}
	slices.Sort(keys)
	// floor is the least load a scan has found so far. Loads only grow
	// within a tick, so the first core still at floor is the least
	// loaded, lowest index first, and the scan stops there.
	floor := int64(0)
	for _, k := range keys {
		a := &allocs[k&mask]
		t := a.Thread
		core := t.LastCPU
		if core < 0 || core >= len(load) || load[core]+a.RanUs > dtUs {
			least := int64(1) << 62
			for c, l := range load {
				if l < least {
					least, core = l, c
					if l == floor {
						break
					}
				}
			}
			floor = least
		}
		load[core] += a.RanUs
		t.LastCPU = core
		a.Core = core
	}
}
