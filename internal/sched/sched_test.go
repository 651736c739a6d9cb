package sched

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

const tick = int64(10_000) // 10 ms

func TestSingleThreadFullCore(t *testing.T) {
	s := New(1)
	th := s.NewThread(nil, nil)
	allocs := s.Tick(tick)
	if len(allocs) != 1 {
		t.Fatalf("got %d allocs, want 1", len(allocs))
	}
	if allocs[0].RanUs != tick {
		t.Fatalf("RanUs = %d, want %d", allocs[0].RanUs, tick)
	}
	if th.UsageUs != tick {
		t.Fatalf("UsageUs = %d, want %d", th.UsageUs, tick)
	}
}

func TestTwoThreadsShareOneCore(t *testing.T) {
	s := New(1)
	a := s.NewThread(nil, nil)
	b := s.NewThread(nil, nil)
	s.Tick(tick)
	if a.UsageUs+b.UsageUs != tick {
		t.Fatalf("total usage = %d, want %d", a.UsageUs+b.UsageUs, tick)
	}
	if diff := a.UsageUs - b.UsageUs; diff > 1 || diff < -1 {
		t.Fatalf("unfair split: %d vs %d", a.UsageUs, b.UsageUs)
	}
}

func TestDemandBelowCapacity(t *testing.T) {
	s := New(2)
	th := s.NewThread(nil, func(now, dt int64) float64 { return 0.25 })
	s.Tick(tick)
	if th.UsageUs != tick/4 {
		t.Fatalf("UsageUs = %d, want %d", th.UsageUs, tick/4)
	}
}

func TestThreadBoundedByOneCore(t *testing.T) {
	s := New(4)
	th := s.NewThread(nil, nil)
	s.Tick(tick)
	if th.UsageUs != tick {
		t.Fatalf("single thread on 4 cores: UsageUs = %d, want %d (one core)", th.UsageUs, tick)
	}
}

// The Fig. 1 scenario of the paper: three threads on one core where a is
// entitled to twice the time of b and c, enforced via quotas of 0.5/0.25/
// 0.25 of the period.
func TestFig1QuotaSplit(t *testing.T) {
	s := New(1)
	mk := func(name string, quota int64) (*Group, *Thread) {
		g := s.NewGroup(nil, name)
		if err := g.SetQuota(quota, 100_000); err != nil {
			t.Fatal(err)
		}
		return g, s.NewThread(g, nil)
	}
	_, a := mk("a", 50_000)
	_, b := mk("b", 25_000)
	_, c := mk("c", 25_000)
	for i := 0; i < 100; i++ { // 1 s
		s.Tick(tick)
	}
	total := float64(a.UsageUs + b.UsageUs + c.UsageUs)
	fa, fb, fc := float64(a.UsageUs)/total, float64(b.UsageUs)/total, float64(c.UsageUs)/total
	if fa < 0.47 || fa > 0.53 || fb < 0.22 || fb > 0.28 || fc < 0.22 || fc > 0.28 {
		t.Fatalf("shares = %.2f/%.2f/%.2f, want 0.50/0.25/0.25", fa, fb, fc)
	}
}

// CFS shares per cgroup (per VM), not per thread: a 2-thread group and a
// 4-thread group on 2 saturated cores each get one core in total.
func TestPerGroupFairnessNotPerThread(t *testing.T) {
	s := New(2)
	small := s.NewGroup(nil, "small")
	large := s.NewGroup(nil, "large")
	var sm, lg []*Thread
	for i := 0; i < 2; i++ {
		sm = append(sm, s.NewThread(small, nil))
	}
	for i := 0; i < 4; i++ {
		lg = append(lg, s.NewThread(large, nil))
	}
	for i := 0; i < 50; i++ {
		s.Tick(tick)
	}
	var smTot, lgTot int64
	for _, t := range sm {
		smTot += t.UsageUs
	}
	for _, t := range lg {
		lgTot += t.UsageUs
	}
	if diff := float64(smTot-lgTot) / float64(smTot+lgTot); diff > 0.02 || diff < -0.02 {
		t.Fatalf("group totals differ: small=%d large=%d", smTot, lgTot)
	}
	// Per-thread: small threads run twice as fast as large threads.
	r := float64(sm[0].UsageUs) / float64(lg[0].UsageUs)
	if r < 1.9 || r > 2.1 {
		t.Fatalf("per-thread ratio = %.2f, want ~2", r)
	}
}

// Paper §IV-A2 experiment a): 20 VMs with 4 vCPUs each, all saturated →
// every vCPU runs at the same speed.
func TestPaperCFSExperimentA(t *testing.T) {
	s := New(40)
	var threads []*Thread
	for v := 0; v < 20; v++ {
		g := s.NewGroup(nil, "vm")
		for j := 0; j < 4; j++ {
			threads = append(threads, s.NewThread(g, nil))
		}
	}
	for i := 0; i < 50; i++ {
		s.Tick(tick)
	}
	min, max := threads[0].UsageUs, threads[0].UsageUs
	for _, th := range threads {
		if th.UsageUs < min {
			min = th.UsageUs
		}
		if th.UsageUs > max {
			max = th.UsageUs
		}
	}
	if float64(max-min)/float64(max) > 0.02 {
		t.Fatalf("vCPU usage spread %.1f%% too large (min=%d max=%d)",
			100*float64(max-min)/float64(max), min, max)
	}
}

// Paper §IV-A2 experiment b): 40 VMs with 1 vCPU and 10 VMs with 4 vCPUs
// on a fully loaded node → 4/5 of the resources go to the 1-vCPU VMs.
func TestPaperCFSExperimentB(t *testing.T) {
	s := New(40)
	var ones, fours []*Thread
	for v := 0; v < 40; v++ {
		g := s.NewGroup(nil, "one")
		ones = append(ones, s.NewThread(g, nil))
	}
	for v := 0; v < 10; v++ {
		g := s.NewGroup(nil, "four")
		for j := 0; j < 4; j++ {
			fours = append(fours, s.NewThread(g, nil))
		}
	}
	for i := 0; i < 50; i++ {
		s.Tick(tick)
	}
	var oneTot, fourTot int64
	for _, t := range ones {
		oneTot += t.UsageUs
	}
	for _, t := range fours {
		fourTot += t.UsageUs
	}
	frac := float64(oneTot) / float64(oneTot+fourTot)
	if frac < 0.78 || frac > 0.82 {
		t.Fatalf("1-vCPU VMs got %.2f of resources, want ~0.80", frac)
	}
}

func TestQuotaEnforcedOverWindow(t *testing.T) {
	s := New(1)
	g := s.NewGroup(nil, "g")
	if err := g.SetQuota(30_000, 100_000); err != nil {
		t.Fatal(err)
	}
	th := s.NewThread(g, nil)
	for i := 0; i < 100; i++ { // 1 s = 10 windows
		s.Tick(tick)
	}
	// 30 ms per 100 ms window → 300 ms out of 1 s.
	if th.UsageUs != 300_000 {
		t.Fatalf("UsageUs = %d, want 300000", th.UsageUs)
	}
}

func TestQuotaUnusedWhenIdle(t *testing.T) {
	s := New(1)
	g := s.NewGroup(nil, "g")
	if err := g.SetQuota(30_000, 100_000); err != nil {
		t.Fatal(err)
	}
	th := s.NewThread(g, func(now, dt int64) float64 { return 0.1 })
	for i := 0; i < 100; i++ {
		s.Tick(tick)
	}
	if th.UsageUs != 100_000 { // 10% demand, quota 30% → demand-bound
		t.Fatalf("UsageUs = %d, want 100000", th.UsageUs)
	}
}

func TestNestedQuota(t *testing.T) {
	s := New(1)
	outer := s.NewGroup(nil, "outer")
	if err := outer.SetQuota(50_000, 100_000); err != nil {
		t.Fatal(err)
	}
	inner := s.NewGroup(outer, "inner")
	if err := inner.SetQuota(80_000, 100_000); err != nil {
		t.Fatal(err)
	}
	th := s.NewThread(inner, nil)
	for i := 0; i < 100; i++ {
		s.Tick(tick)
	}
	// Outer quota (50%) binds despite inner allowing 80%.
	if th.UsageUs != 500_000 {
		t.Fatalf("UsageUs = %d, want 500000", th.UsageUs)
	}
}

func TestWorkConservingAcrossGroups(t *testing.T) {
	s := New(1)
	ga := s.NewGroup(nil, "a")
	gb := s.NewGroup(nil, "b")
	a := s.NewThread(ga, func(now, dt int64) float64 { return 0.2 })
	b := s.NewThread(gb, nil)
	s.Tick(tick)
	if a.UsageUs != tick/5 {
		t.Fatalf("a usage = %d, want %d", a.UsageUs, tick/5)
	}
	if b.UsageUs != tick-tick/5 {
		t.Fatalf("b usage = %d, want %d (leftover)", b.UsageUs, tick-tick/5)
	}
}

func TestGroupUsagePropagates(t *testing.T) {
	s := New(2)
	parent := s.NewGroup(nil, "p")
	child := s.NewGroup(parent, "c")
	s.NewThread(child, nil)
	s.NewThread(parent, nil)
	s.Tick(tick)
	if child.UsageUs != tick {
		t.Fatalf("child usage = %d, want %d", child.UsageUs, tick)
	}
	if parent.UsageUs != 2*tick {
		t.Fatalf("parent usage = %d, want %d", parent.UsageUs, 2*tick)
	}
	if s.Root().UsageUs != 2*tick {
		t.Fatalf("root usage = %d, want %d", s.Root().UsageUs, 2*tick)
	}
}

func TestCorePlacementBounds(t *testing.T) {
	s := New(4)
	for i := 0; i < 8; i++ {
		s.NewThread(nil, nil)
	}
	allocs := s.Tick(tick)
	for _, a := range allocs {
		if a.Core < 0 || a.Core >= 4 {
			t.Fatalf("core %d out of range", a.Core)
		}
		if a.Thread.LastCPU != a.Core {
			t.Fatalf("LastCPU %d != alloc core %d", a.Thread.LastCPU, a.Core)
		}
	}
}

func TestStickyPlacement(t *testing.T) {
	s := New(4)
	th := s.NewThread(nil, nil)
	s.Tick(tick)
	first := th.LastCPU
	for i := 0; i < 20; i++ {
		s.Tick(tick)
		if th.LastCPU != first {
			t.Fatalf("lone saturated thread migrated from %d to %d", first, th.LastCPU)
		}
	}
}

func TestUtilization(t *testing.T) {
	s := New(2)
	s.NewThread(nil, nil) // one thread saturates one of two cores
	s.Tick(tick)
	if u := s.Utilization(); u < 0.49 || u > 0.51 {
		t.Fatalf("Utilization = %.2f, want 0.5", u)
	}
	// One core fully busy, one idle.
	busy, idle := 0, 0
	for c := 0; c < 2; c++ {
		switch u := s.CoreUtilization(c); {
		case u > 0.99:
			busy++
		case u < 0.01:
			idle++
		}
	}
	if busy != 1 || idle != 1 {
		t.Fatalf("core utilisations unexpected: busy=%d idle=%d", busy, idle)
	}
}

func TestRemoveThread(t *testing.T) {
	s := New(1)
	a := s.NewThread(nil, nil)
	b := s.NewThread(nil, nil)
	s.RemoveThread(a)
	s.Tick(tick)
	if b.UsageUs != tick {
		t.Fatalf("b usage = %d, want %d", b.UsageUs, tick)
	}
	if a.UsageUs != 0 {
		t.Fatalf("removed thread ran: %d", a.UsageUs)
	}
	if s.Thread(a.ID) != nil {
		t.Fatal("removed thread still registered")
	}
}

func TestRemoveGroup(t *testing.T) {
	s := New(1)
	g := s.NewGroup(nil, "g")
	sub := s.NewGroup(g, "sub")
	th := s.NewThread(sub, nil)
	other := s.NewThread(nil, nil)
	if err := s.RemoveGroup(g); err != nil {
		t.Fatal(err)
	}
	if th.Group != nil {
		t.Fatalf("thread of a removed group still points at %s", th.Group.Name)
	}
	s.Tick(tick)
	if th.UsageUs != 0 {
		t.Fatal("thread in removed group ran")
	}
	if other.UsageUs != tick {
		t.Fatalf("other usage = %d, want %d", other.UsageUs, tick)
	}
	if err := s.RemoveGroup(s.Root()); err == nil {
		t.Fatal("removing root succeeded")
	}
}

// TestRemoveUnknownGroup: removing a group that has left the tree, by
// itself or with an ancestor, is an error that changes nothing, not a nil
// parent dereferenced.
func TestRemoveUnknownGroup(t *testing.T) {
	s := New(1)
	g := s.NewGroup(nil, "g")
	sub := s.NewGroup(g, "sub")
	keep := s.NewGroup(nil, "keep")
	if err := s.RemoveGroup(g); err != nil {
		t.Fatal(err)
	}
	for name, gone := range map[string]*Group{"g": g, "g/sub": sub, "nil": nil} {
		if err := s.RemoveGroup(gone); err == nil {
			t.Fatalf("removing %s, not in the tree, succeeded", name)
		}
	}
	if got := s.Root().Children; len(got) != 1 || got[0] != keep {
		t.Fatalf("root children = %v, want only keep", got)
	}
}

func TestGroupPath(t *testing.T) {
	s := New(1)
	a := s.NewGroup(nil, "a")
	b := s.NewGroup(a, "b")
	if got := b.Path(); got != "/a/b" {
		t.Fatalf("Path = %q, want /a/b", got)
	}
	if got := s.Root().Path(); got != "/" {
		t.Fatalf("root Path = %q", got)
	}
}

func TestSetQuotaValidation(t *testing.T) {
	s := New(1)
	g := s.NewGroup(nil, "g")
	if err := g.SetQuota(1000, 0); err == nil {
		t.Fatal("zero period accepted")
	}
	if err := g.SetQuota(-5, 100_000); err == nil {
		t.Fatal("negative quota accepted")
	}
	if err := g.SetQuota(NoQuota, 100_000); err != nil {
		t.Fatalf("NoQuota rejected: %v", err)
	}
}

func TestOnRunCallback(t *testing.T) {
	s := New(1)
	var ran int64
	th := s.NewThread(nil, nil)
	th.OnRun = func(now, ranUs, freqMHz int64) { ran += ranUs }
	allocs := s.Tick(tick)
	for _, a := range allocs {
		if a.Thread.OnRun != nil {
			a.Thread.OnRun(s.NowUs(), a.RanUs, 2400)
		}
	}
	if ran != tick {
		t.Fatalf("OnRun accumulated %d, want %d", ran, tick)
	}
}

// Property: for any random hierarchy and demands, the scheduler conserves
// time (Σ alloc ≤ cores·dt), bounds threads at one core, and never lets a
// group exceed its quota within a window.
func TestQuickConservationAndQuota(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cores := rng.Intn(8) + 1
		s := New(cores)
		var groups []*Group
		groups = append(groups, s.Root())
		var quotaGroups []*Group
		for i := 0; i < rng.Intn(6)+1; i++ {
			parent := groups[rng.Intn(len(groups))]
			g := s.NewGroup(parent, "g")
			if rng.Intn(2) == 0 {
				q := int64(rng.Intn(90_000) + 5_000)
				if err := g.SetQuota(q, 100_000); err != nil {
					return false
				}
				quotaGroups = append(quotaGroups, g)
			}
			groups = append(groups, g)
		}
		var threads []*Thread
		for i := 0; i < rng.Intn(12)+1; i++ {
			g := groups[rng.Intn(len(groups))]
			d := rng.Float64()
			threads = append(threads, s.NewThread(g, func(now, dt int64) float64 { return d }))
		}
		for it := 0; it < 30; it++ {
			allocs := s.Tick(tick)
			var total int64
			for _, a := range allocs {
				if a.RanUs < 0 || a.RanUs > tick {
					return false
				}
				total += a.RanUs
			}
			if total > tick*int64(cores) {
				return false
			}
		}
		// Quota check over whole run: usage ≤ quota × windows elapsed.
		windows := int64(30) * tick / 100_000
		for _, g := range quotaGroups {
			if g.UsageUs > g.QuotaUs*(windows+1) {
				return false
			}
		}
		_ = threads
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------
// Reference tick and the differential tests that pin Tick to it.
//
// reference is the tick this package shipped before Tick became one
// descent and one ascent of the cgroup tree: recursive walks
// (refreshWindows, collectDemands, allocate re-recursing need() at every
// level), a per-thread ancestor walk for usage and an insertion sort for
// placement. The code below is that tick verbatim, with its scratch moved
// off the Scheduler and without the burst reserve and throttle accounting,
// which left with the counters they fed, and with every entity at the
// default weight of 100, the only one left.
// The simulation's contract is bit-identity with it (DESIGN.md §5): the
// repository benchmark's state digests hash every vCPU's cycle counter.
// ---------------------------------------------------------------------

type reference struct {
	*Scheduler
	runnableScratch []*Thread
	allocScratch    []Alloc
	orderScratch    []int
	activeScratch   []*refEntity
	levels          []refLevel
}

// refEntity is a schedulable child of a group during one tick: either a
// thread or a sub-group.
type refEntity struct {
	thread *Thread
	group  *Group
	weight int64
	need   int64
	got    int64
}

// refLevel is the per-recursion-depth refEntity storage of allocate:
// the refEntity values for one group's children plus the pointer slice
// waterfill filters. One level is reused by every group at that depth
// (allocation within a level finishes before the recursion descends).
type refLevel struct {
	vals []refEntity
	ptrs []*refEntity
}

// referenceTick advances the simulation by dt microseconds, distributing CPU time
// over runnable threads. It returns the per-thread allocations. The caller
// is responsible for invoking thread OnRun callbacks with core
// frequencies; Tick itself updates usage counters, bandwidth windows and
// thread placement. The returned slice is reused by the next Tick, so
// callers must consume (or copy) it before advancing again.
func (s *reference) referenceTick(dtUs int64) []Alloc {
	if dtUs <= 0 {
		panic("sched: dt must be positive")
	}
	s.refreshWindows(s.root, dtUs)

	// Gather demands.
	runnable := s.runnableScratch[:0]
	s.collectDemands(s.root, dtUs, &runnable)
	s.runnableScratch = runnable

	capacity := dtUs * int64(s.Cores)
	s.allocate(s.root, capacity, dtUs, 0)

	// Record usage, build allocations, place threads on cores.
	allocs := s.allocScratch[:0]
	for _, t := range runnable {
		if t.got < 0 {
			panic("sched: negative allocation")
		}
		if t.got == 0 {
			continue
		}
		t.UsageUs += t.got
		for g := t.Group; g != nil; g = g.Parent {
			g.UsageUs += t.got
			g.windowUsedUs += t.got
		}
		allocs = append(allocs, Alloc{Thread: t, RanUs: t.got})
	}
	s.allocScratch = allocs
	s.placeOnCores(allocs, dtUs)
	s.nowUs += dtUs
	s.lastDtUs = dtUs
	return allocs
}

// refreshWindows opens new bandwidth periods where due.
func (s *reference) refreshWindows(g *Group, dtUs int64) {
	if g.QuotaUs != NoQuota {
		for s.nowUs-g.windowStartUs >= g.PeriodUs {
			g.windowStartUs += g.PeriodUs
			g.windowUsedUs = 0
		}
	}
	for _, c := range g.Children {
		s.refreshWindows(c, dtUs)
	}
}

// collectDemands evaluates thread demands for the next tick.
func (s *reference) collectDemands(g *Group, dtUs int64, out *[]*Thread) {
	for _, t := range g.Threads {
		f := 1.0
		if t.Demand != nil {
			f = t.Demand(s.nowUs, dtUs)
		}
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		t.want = int64(f * float64(dtUs))
		t.got = 0
		if t.want > 0 {
			*out = append(*out, t)
		}
	}
	for _, c := range g.Children {
		s.collectDemands(c, dtUs, out)
	}
}

// refNeed computes the feasible demand of the subtree rooted at g for this
// tick: the sum of thread demands, clamped by every quota on the way down.
func (g *Group) refNeed() int64 {
	var sum int64
	for _, t := range g.Threads {
		sum += t.want - t.got
	}
	for _, c := range g.Children {
		sum += c.refNeed()
	}
	if q := g.quotaRemaining(); sum > q {
		sum = q
	}
	return sum
}

// allocate distributes capacity µs of CPU time within group g using
// weighted max-min fairness over its children (sub-groups and direct
// threads). dtUs bounds each thread at one core. depth indexes the
// per-level refEntity scratch: sibling groups share a level and recursion
// into a child uses the next one, so no allocation survives warm-up.
func (s *reference) allocate(g *Group, capacity, dtUs int64, depth int) {
	if q := g.quotaRemaining(); capacity > q {
		capacity = q
	}
	if capacity <= 0 {
		return
	}
	if depth == len(s.levels) {
		s.levels = append(s.levels, refLevel{})
	}
	// Build child entities in the level's value slice first; pointers
	// are taken only once the slice has stopped growing.
	vals := s.levels[depth].vals[:0]
	for _, t := range g.Threads {
		if n := t.want - t.got; n > 0 {
			vals = append(vals, refEntity{thread: t, weight: 100, need: n})
		}
	}
	for _, c := range g.Children {
		if n := c.refNeed(); n > 0 {
			vals = append(vals, refEntity{group: c, weight: 100, need: n})
		}
	}
	s.levels[depth].vals = vals
	if len(vals) == 0 {
		return
	}
	ents := s.levels[depth].ptrs[:0]
	for i := range vals {
		ents = append(ents, &vals[i])
	}
	s.levels[depth].ptrs = ents
	s.waterfill(ents, capacity)
	for _, e := range ents {
		if e.got == 0 {
			continue
		}
		if e.thread != nil {
			e.thread.got += e.got
		} else {
			s.allocate(e.group, e.got, dtUs, depth+1)
		}
	}
}

// waterfill distributes capacity among entities by weighted max-min
// fairness with exact integer conservation: Σ got ≤ capacity, got ≤ need,
// and no refEntity can gain without another losing. The active list lives in
// a single scheduler-wide scratch: a waterfill completes before allocate
// recurses, so nested calls never overlap on it.
func (s *reference) waterfill(ents []*refEntity, capacity int64) {
	active := s.activeScratch[:0]
	active = append(active, ents...)
	s.activeScratch = active
	for capacity > 0 && len(active) > 0 {
		var sumW int64
		for _, e := range active {
			sumW += e.weight
		}
		snapshot := capacity
		progress := false
		next := active[:0]
		for _, e := range active {
			share := snapshot * e.weight / sumW
			if share > capacity {
				share = capacity
			}
			give := e.need - e.got
			if give > share {
				give = share
			}
			if give > 0 {
				e.got += give
				capacity -= give
				progress = true
			}
			if e.got < e.need {
				next = append(next, e)
			}
		}
		active = next
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
				next := active[:0]
				for _, e := range active {
					if capacity == 0 {
						next = append(next, e)
						continue
					}
					e.got++
					capacity--
					if e.got < e.need {
						next = append(next, e)
					}
				}
				active = next
			}
		}
	}
}

// placeOnCores assigns each allocation to a core for the tick. Threads
// prefer their previous core if it has room (models CFS affinity: loaded
// threads migrate rarely); otherwise they go to the least-loaded core.
func (s *reference) placeOnCores(allocs []Alloc, dtUs int64) {
	for i := range s.coreLoadUs {
		s.coreLoadUs[i] = 0
	}
	// Largest allocations first gives first-fit-decreasing packing.
	// Stable insertion sort over a reused index slice: identical order
	// to sort.SliceStable by descending RanUs, with no per-tick
	// allocation.
	order := s.orderScratch[:0]
	for i := range allocs {
		order = append(order, i)
	}
	s.orderScratch = order
	for i := 1; i < len(order); i++ {
		oi := order[i]
		v := allocs[oi].RanUs
		j := i - 1
		for j >= 0 && allocs[order[j]].RanUs < v {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = oi
	}
	for _, idx := range order {
		a := &allocs[idx]
		t := a.Thread
		core := -1
		if t.LastCPU >= 0 && t.LastCPU < s.Cores &&
			s.coreLoadUs[t.LastCPU]+a.RanUs <= dtUs {
			core = t.LastCPU
		} else {
			least := int64(1) << 62
			for c := 0; c < s.Cores; c++ {
				if s.coreLoadUs[c] < least {
					least = s.coreLoadUs[c]
					core = c
				}
			}
		}
		s.coreLoadUs[core] += a.RanUs
		t.LastCPU = core
		a.Core = core
	}
}

// chooser draws the decisions of a differential schedule: from a seeded
// generator in the tests, from the fuzzer's bytes (zeros once they run
// out) in the fuzz target.
type chooser struct {
	rng  *rand.Rand
	data []byte
	log  []byte // the bytes that make a data chooser repeat an rng chooser's draws
}

func (c *chooser) intn(n int) int {
	if c.rng != nil {
		v := c.rng.Intn(n)
		if n > 256 {
			c.log = append(c.log, byte(v>>8))
		}
		c.log = append(c.log, byte(v))
		return v
	}
	v := 0
	for k := 0; k < 2 && (k == 0 || n > 256); k++ {
		if len(c.data) > 0 {
			v = v<<8 | int(c.data[0])
			c.data = c.data[1:]
		}
	}
	return v % n
}

// twins drives the production scheduler and the reference through one
// schedule of ticks and tree mutations. Index 0 of every pair is
// production, index 1 the reference; groups[.][0] is the root.
type twins struct {
	tb      testing.TB
	c       *chooser
	prod    *Scheduler
	ref     *reference
	groups  [2][]*Group
	depth   []int
	threads [2][]*Thread
	shapes  []*demandShape // of threads[.][i], shared by the two sides
	calls   [2][]int       // thread IDs in the order Demand was called this tick
	calm    bool           // a quiet stretch: the time-varying shapes hold one level
	quiets  int            // quiet stretches begun; in every other one the on/off shape flips every tick
	ticks   uint64         // played so far
}

// demandShape is what a twin thread asks for; a schedule may change frac
// mid-run.
type demandShape struct{ kind, frac int }

var (
	diffQuotas  = []int64{NoQuota, 1, 7, 50, 1000, 5000, 12_345, 25_000, 50_000, 100_000, 250_000}
	diffPeriods = []int64{100_000, 100_000, 50_000, 20_000, 7_000, 1_000_000}
	diffTicks   = []int64{10_000, 10_000, 10_000, 10_000, 10_000, 10_000, 1, 3, 100, 1000, 2500, 30_000, 100_000, 250_000, 12_000_000}
	// quietTicks are the tick lengths of quiet stretches: mostly ones the
	// ring records (4 to 100 slots), and two it does not.
	quietTicks = []int64{10_000, 10_000, 10_000, 5000, 20_000, 25_000, 2500, 1000, 30_000, 50_000}
)

func newTwins(tb testing.TB, c *chooser) *twins {
	cores := 1 + c.intn(8)
	if c.intn(8) == 0 {
		// A chetemi, and the machines of one word of placeOnCores' floor
		// mask and of one core more.
		cores = []int{40, 64, 65}[c.intn(3)]
	}
	tw := &twins{tb: tb, c: c, prod: New(cores), ref: &reference{Scheduler: New(cores)}, depth: []int{0}}
	tw.groups[0] = []*Group{tw.prod.Root()}
	tw.groups[1] = []*Group{tw.ref.Root()}
	for i, n := 0, 2+c.intn(10); i < n; i++ {
		tw.newGroup()
	}
	for i, n := 0, 3+c.intn(16); i < n; i++ {
		tw.newThread()
	}
	return tw
}

// both applies one mutation to each side and requires the same outcome.
func (tw *twins) both(what string, op func(side int) error) {
	tw.tb.Helper()
	e0, e1 := op(0), op(1)
	if (e0 == nil) != (e1 == nil) {
		tw.tb.Fatalf("%s: production returned %v, reference %v", what, e0, e1)
	}
}

func (tw *twins) sched(side int) *Scheduler {
	if side == 0 {
		return tw.prod
	}
	return tw.ref.Scheduler
}

func (tw *twins) newGroup() {
	if len(tw.depth) >= 24 {
		return
	}
	p := tw.c.intn(len(tw.depth))
	if tw.depth[p] >= 4 {
		return
	}
	name := fmt.Sprintf("g%d", len(tw.depth))
	for side := 0; side < 2; side++ {
		tw.groups[side] = append(tw.groups[side], tw.sched(side).NewGroup(tw.groups[side][p], name))
	}
	tw.depth = append(tw.depth, tw.depth[p]+1)
	if tw.c.intn(2) == 0 {
		tw.setQuota(len(tw.depth) - 1)
	}
}

func (tw *twins) setQuota(i int) {
	q := diffQuotas[tw.c.intn(len(diffQuotas))]
	per := diffPeriods[tw.c.intn(len(diffPeriods))]
	tw.both("SetQuota", func(side int) error { return tw.groups[side][i].SetQuota(q, per) })
}

// demand returns the demand function of thread id on one side. Every shape
// is a pure function of (id, now) and of schedule state the two sides
// share, so the twins agree as long as Tick and the reference evaluate them
// at the same times; the call log checks the order too.
func (tw *twins) demand(side, id int, sh *demandShape) func(nowUs, dtUs int64) float64 {
	if sh.kind == 0 {
		return nil // always runnable
	}
	return func(nowUs, dtUs int64) float64 {
		tw.calls[side] = append(tw.calls[side], id)
		switch sh.kind {
		case 1:
			return 0
		case 2:
			return float64(sh.frac) / 16
		case 3:
			return 1.5 // clamped to 1
		case 4:
			return -0.25 // clamped to 0
		case 5:
			return 0.005 // the emulator thread of vm.Manager
		}
		if tw.calm {
			if sh.kind == 6 && tw.quiets%2 == 0 {
				// Running on every other tick keeps the previous tick
				// from answering while every window repeats the one
				// before: those ticks place in the order their slot
				// kept.
				return float64(sh.frac) / 16 * float64((nowUs/dtUs+int64(id))%2)
			}
			return float64(sh.frac) / 16
		}
		if sh.kind == 6 {
			return float64((nowUs/30_000 + int64(id)) % 2) // on/off phases
		}
		x := uint64(nowUs)*0x9e3779b97f4a7c15 + uint64(id)*0xbf58476d1ce4e5b9
		x ^= x >> 31
		return float64(x%1001) / 1000
	}
}

func (tw *twins) newThread() {
	if len(tw.threads[0]) >= 48 {
		return
	}
	g := tw.c.intn(len(tw.depth))
	sh := &demandShape{kind: tw.c.intn(8), frac: tw.c.intn(17)}
	for side := 0; side < 2; side++ {
		s := tw.sched(side)
		th := s.NewThread(tw.groups[side][g], nil)
		th.Demand = tw.demand(side, th.ID, sh)
		tw.threads[side] = append(tw.threads[side], th)
	}
	tw.shapes = append(tw.shapes, sh)
}

func (tw *twins) removeThread() {
	if len(tw.threads[0]) == 0 {
		return
	}
	i := tw.c.intn(len(tw.threads[0]))
	for side := 0; side < 2; side++ {
		tw.sched(side).RemoveThread(tw.threads[side][i])
		tw.threads[side] = append(tw.threads[side][:i], tw.threads[side][i+1:]...)
	}
	tw.shapes = append(tw.shapes[:i], tw.shapes[i+1:]...)
}

func (tw *twins) removeGroup() {
	if len(tw.depth) < 2 {
		return
	}
	i := 1 + tw.c.intn(len(tw.depth)-1)
	under := func(g, top *Group) bool {
		for ; g != nil; g = g.Parent {
			if g == top {
				return true
			}
		}
		return false
	}
	var depth []int
	var shapes []*demandShape
	for side := 0; side < 2; side++ {
		top := tw.groups[side][i]
		var groups []*Group
		var threads []*Thread
		shapes = shapes[:0]
		for k, th := range tw.threads[side] {
			if !under(th.Group, top) {
				threads = append(threads, th)
				shapes = append(shapes, tw.shapes[k])
			}
		}
		depth = depth[:0]
		for k, g := range tw.groups[side] {
			if !under(g, top) {
				groups = append(groups, g)
				depth = append(depth, tw.depth[k])
			}
		}
		if err := tw.sched(side).RemoveGroup(top); err != nil {
			tw.tb.Fatal(err)
		}
		tw.groups[side], tw.threads[side] = groups, threads
	}
	tw.depth, tw.shapes = depth, shapes
}

func (tw *twins) mutate() {
	switch tw.c.intn(6) {
	case 0:
		tw.newGroup()
	case 1:
		tw.removeGroup()
	case 2, 3:
		tw.newThread()
	case 4:
		tw.removeThread()
	case 5:
		tw.setQuota(tw.c.intn(len(tw.depth)))
	}
}

// tick advances both sides by one tick of a drawn length.
func (tw *twins) tick(label string) {
	tw.tickOf(label, diffTicks[tw.c.intn(len(diffTicks))])
}

// tickOf advances both sides by the same dt and compares everything the
// tick wrote, with ==.
func (tw *twins) tickOf(label string, dt int64) {
	tb := tw.tb
	tw.ticks++
	tw.calls[0], tw.calls[1] = tw.calls[0][:0], tw.calls[1][:0]
	got, want := tw.prod.Tick(dt), tw.ref.referenceTick(dt)
	if len(got) != len(want) {
		tb.Fatalf("%s: %d allocations, reference %d", label, len(got), len(want))
	}
	for i := range got {
		if g, w := got[i], want[i]; g.Thread.ID != w.Thread.ID || g.RanUs != w.RanUs || g.Core != w.Core {
			tb.Fatalf("%s: alloc %d = {tid %d ran %d core %d}, reference {tid %d ran %d core %d}",
				label, i, g.Thread.ID, g.RanUs, g.Core, w.Thread.ID, w.RanUs, w.Core)
		}
	}
	if fmt.Sprint(tw.calls[0]) != fmt.Sprint(tw.calls[1]) {
		tb.Fatalf("%s: Demand call order %v, reference %v", label, tw.calls[0], tw.calls[1])
	}
	for i, g := range tw.threads[0] {
		if w := tw.threads[1][i]; g.UsageUs != w.UsageUs || g.LastCPU != w.LastCPU {
			tb.Fatalf("%s: thread %d usage %d cpu %d, reference usage %d cpu %d",
				label, g.ID, g.UsageUs, g.LastCPU, w.UsageUs, w.LastCPU)
		}
	}
	type counters struct{ usage, windowStart, windowUsed int64 }
	of := func(g *Group) counters {
		return counters{usage: g.UsageUs, windowStart: g.windowStartUs, windowUsed: g.windowUsedUs}
	}
	for i, g := range tw.groups[0] {
		if a, b := of(g), of(tw.groups[1][i]); a != b {
			tb.Fatalf("%s: group %s\n  got       %+v\n  reference %+v", label, g.Path(), a, b)
		}
	}
	p, r := tw.prod, tw.ref.Scheduler
	for c := 0; c < p.Cores; c++ {
		if p.CoreLoadUs(c) != r.CoreLoadUs(c) {
			tb.Fatalf("%s: core %d load %d, reference %d", label, c, p.CoreLoadUs(c), r.CoreLoadUs(c))
		}
	}
	if p.NowUs() != r.NowUs() || p.Utilization() != r.Utilization() {
		tb.Fatalf("%s: now %d utilisation %v, reference now %d utilisation %v",
			label, p.NowUs(), p.Utilization(), r.NowUs(), r.Utilization())
	}
}

// quiet plays what the previous-tick memo and the ring's kept orders exist
// for and what must wake them: at least three bandwidth windows of ticks
// of one length, no mutation, the time-varying demands held level; then
// exactly one change; then two more windows, in which a memo that slept
// through the change shows. It returns the number of ticks played.
func (tw *twins) quiet(label string) int {
	dt := quietTicks[tw.c.intn(len(quietTicks))]
	window := max(int(DefaultPeriodUs/dt), 2)
	tw.calm = true
	tw.quiets++
	defer func() { tw.calm = false }()
	n := 3*window + tw.c.intn(window+1)
	for k := 0; k < n; k++ {
		tw.tickOf(fmt.Sprintf("%s quiet tick %d", label, k), dt)
	}
	what := ""
	switch any := tw.c.intn(len(tw.depth)); tw.c.intn(9) {
	case 0:
		what = "SetQuota"
		tw.setQuota(any)
	case 1:
		what = "NewThread"
		tw.newThread()
	case 2:
		what = "RemoveThread"
		tw.removeThread()
	case 3:
		what = "NewGroup"
		tw.newGroup()
	case 4:
		what = "RemoveGroup"
		tw.removeGroup()
	case 5:
		what = "demand level"
		if len(tw.shapes) > 0 {
			// Every shape but nil, 0 and the clamped ones follows frac
			// while the stretch lasts; moving a level that is not
			// listened to is a change that must change nothing.
			sh := tw.shapes[tw.c.intn(len(tw.shapes))]
			sh.frac = (sh.frac + 1 + tw.c.intn(16)) % 17
		}
	case 6:
		what = "tick length"
		dt = quietTicks[tw.c.intn(len(quietTicks))]
	case 7:
		what = "root quota"
		q := []int64{NoQuota, 5000, 25_000, 250_000}[tw.c.intn(4)]
		tw.both(what, func(side int) error { return tw.groups[side][0].SetQuota(q, DefaultPeriodUs) })
	case 8:
		what = "odd period"
		q, per := diffQuotas[1+tw.c.intn(len(diffQuotas)-1)], diffPeriods[2+tw.c.intn(len(diffPeriods)-2)]
		tw.both(what, func(side int) error { return tw.groups[side][any].SetQuota(q, per) })
	}
	for k := 0; k < 2*window; k++ {
		tw.tickOf(fmt.Sprintf("%s tick %d after %s", label, k, what), dt)
	}
	return n + 2*window
}

// run plays at least ticks ticks: a mutation of the tree before about a
// third of them, a quiet stretch in place of one in a hundred.
func (tw *twins) run(label string, ticks int) {
	for k := 0; k < ticks; k++ {
		switch c := tw.c.intn(100); {
		case c == 0:
			k += tw.quiet(fmt.Sprintf("%s tick %d", label, k))
			continue
		case c < 34:
			for n := 1 + tw.c.intn(3); n > 0; n-- {
				tw.mutate()
			}
		}
		tw.tick(fmt.Sprintf("%s tick %d", label, k))
	}
}

// TestTickAgainstReference holds Tick bit-identical to the reference over
// seeded schedules of random trees (depth ≤ 4; mixed quotas and periods;
// nil, zero, fractional, out-of-range and time-varying demands; tick
// lengths from 1 µs, which forces the waterfill's remainder path, to
// 250 ms, which rolls several windows at once) with the tree mutated
// mid-run, and quiet stretches in which the previous tick answers for
// allocate: the last check is that it did.
func TestTickAgainstReference(t *testing.T) {
	schedules, ticks := 240, 300
	if testing.Short() {
		schedules = 40
	}
	var played, prevGot uint64
	for seed := 1; seed <= schedules; seed++ {
		tw := newTwins(t, &chooser{rng: rand.New(rand.NewSource(int64(seed)))})
		tw.run(fmt.Sprintf("seed %d", seed), ticks)
		played += tw.ticks
		prevGot += tw.prod.replay.prevGot
	}
	t.Logf("%d ticks; the previous tick answered %d allocations", played, prevGot)
	if prevGot < played/4 {
		t.Fatal("the schedules do not exercise the previous tick: want a quarter of the ticks' allocations answered by it")
	}
}

// TestTickAgainstReferenceTableII is the same comparison on the shape the
// repository benchmark steps (bench_test.go), where the lone-thread fast
// path, the keyed placement sort and the early-exit core scan do the work.
func TestTickAgainstReferenceTableII(t *testing.T) {
	tw := adoptTwins(t, tableIINode(), tableIINode())
	for k := 0; k < 500; k++ {
		tw.tick(fmt.Sprintf("table II tick %d", k)) // the zero chooser always ticks 10 ms
	}
}

// adoptTwins makes twins of two schedulers built alike by hand; their
// demands must be functions the two may share.
func adoptTwins(tb testing.TB, prod, ref *Scheduler) *twins {
	tw := &twins{tb: tb, c: &chooser{}, prod: prod, ref: &reference{Scheduler: ref}}
	for side := 0; side < 2; side++ {
		tw.groups[side] = appendPreorder(nil, tw.sched(side).Root())
		for _, g := range tw.groups[side] {
			tw.threads[side] = append(tw.threads[side], g.Threads...)
		}
	}
	return tw
}

// FuzzTickAgainstReference lets the fuzzer write the schedule: its bytes
// pick the tree, the mutations and the tick lengths.
func FuzzTickAgainstReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("one descent, one ascent"))
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 4; i++ {
		b := make([]byte, 256)
		rng.Read(b)
		f.Add(b)
	}
	// Schedules the previous tick sleeps and is woken in: the draws of the
	// first seeded schedules where it answers between a third and two
	// thirds of the allocations, as the bytes that repeat them.
	for seed, n := int64(1), 0; n < 4; seed++ {
		tw := newTwins(f, &chooser{rng: rand.New(rand.NewSource(seed))})
		tw.run("corpus", 64)
		if r := tw.prod.replay; 3*r.prevGot > tw.ticks && 3*r.prevGot < 2*tw.ticks {
			f.Add(tw.c.log)
			n++
		}
	}
	// A 64-core and a 65-core machine: the draws 0, 0 take newTwins to
	// the wide machines, the third picks one.
	for _, wide := range []byte{1, 2} {
		b := make([]byte, 256)
		rng.Read(b)
		f.Add(append([]byte{0, 0, wide}, b...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tw := newTwins(t, &chooser{data: data})
		tw.run("fuzz", 64)
	})
}
