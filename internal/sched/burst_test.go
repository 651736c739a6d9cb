package sched

import (
	"testing"
	"testing/quick"
)

func TestSetBurstValidation(t *testing.T) {
	s := New(1)
	g := s.NewGroup(nil, "g")
	if err := g.SetBurst(1000); err == nil {
		t.Fatal("burst without quota accepted")
	}
	if err := g.SetQuota(50_000, 100_000); err != nil {
		t.Fatal(err)
	}
	if err := g.SetBurst(-1); err == nil {
		t.Fatal("negative burst accepted")
	}
	if err := g.SetBurst(60_000); err == nil {
		t.Fatal("burst above quota accepted")
	}
	if err := g.SetBurst(50_000); err != nil {
		t.Fatalf("valid burst rejected: %v", err)
	}
	// The mirror-image rule: a finite quota may not drop below the burst.
	if err := g.SetQuota(40_000, 100_000); err == nil {
		t.Fatal("quota below burst accepted")
	}
	if g.QuotaUs != 50_000 {
		t.Fatalf("rejected quota write changed the quota to %d", g.QuotaUs)
	}
	if err := g.SetQuota(50_000, 100_000); err != nil {
		t.Fatalf("quota equal to burst rejected: %v", err)
	}
	if err := g.SetQuota(NoQuota, 100_000); err != nil {
		t.Fatalf("lifting the quota with a burst set rejected: %v", err)
	}
	if err := g.SetBurst(0); err != nil {
		t.Fatalf("clearing burst rejected: %v", err)
	}
	if err := g.SetQuota(40_000, 100_000); err != nil {
		t.Fatalf("quota rejected after the burst was cleared: %v", err)
	}
}

// After idle periods, an accumulated burst reserve lets the group exceed
// its quota for one window; without burst it cannot.
func TestBurstAllowsTemporaryOverrun(t *testing.T) {
	run := func(burst int64) int64 {
		s := New(1)
		g := s.NewGroup(nil, "g")
		if err := g.SetQuota(50_000, 100_000); err != nil {
			t.Fatal(err)
		}
		if err := g.SetBurst(burst); err != nil {
			t.Fatal(err)
		}
		// One idle window accrues unused quota into the reserve.
		active := false
		th := s.NewThread(g, func(now, dt int64) float64 {
			if active {
				return 1
			}
			return 0
		})
		for i := 0; i < 10; i++ { // window 1: idle
			s.Tick(tick)
		}
		active = true
		before := th.UsageUs
		for i := 0; i < 10; i++ { // window 2: saturated
			s.Tick(tick)
		}
		return th.UsageUs - before
	}
	noBurst := run(0)
	withBurst := run(40_000)
	if noBurst != 50_000 {
		t.Fatalf("no-burst window usage = %d, want 50000", noBurst)
	}
	if withBurst != 90_000 { // quota + accumulated reserve
		t.Fatalf("burst window usage = %d, want 90000", withBurst)
	}
}

// The reserve is capped at BurstUs no matter how long the group idles.
func TestBurstReserveCapped(t *testing.T) {
	s := New(1)
	g := s.NewGroup(nil, "g")
	if err := g.SetQuota(50_000, 100_000); err != nil {
		t.Fatal(err)
	}
	if err := g.SetBurst(20_000); err != nil {
		t.Fatal(err)
	}
	active := false
	th := s.NewThread(g, func(now, dt int64) float64 {
		if active {
			return 1
		}
		return 0
	})
	for i := 0; i < 50; i++ { // five idle windows
		s.Tick(tick)
	}
	active = true
	before := th.UsageUs
	for i := 0; i < 10; i++ {
		s.Tick(tick)
	}
	if got := th.UsageUs - before; got != 70_000 { // quota + capped burst
		t.Fatalf("usage = %d, want 70000", got)
	}
	// Burst statistics settle when the overrun window closes.
	for i := 0; i < 10; i++ {
		s.Tick(tick)
	}
	if g.NrBursts == 0 || g.BurstUsedUs != 20_000 {
		t.Fatalf("burst stats: nr=%d used=%d, want used=20000", g.NrBursts, g.BurstUsedUs)
	}
}

// Sustained load cannot exceed the quota on average: the reserve never
// refills while the group keeps saturating its windows.
func TestBurstSustainedRateBounded(t *testing.T) {
	s := New(1)
	g := s.NewGroup(nil, "g")
	if err := g.SetQuota(50_000, 100_000); err != nil {
		t.Fatal(err)
	}
	if err := g.SetBurst(50_000); err != nil {
		t.Fatal(err)
	}
	th := s.NewThread(g, nil)
	for i := 0; i < 200; i++ { // 2 s = 20 windows, all saturated
		s.Tick(tick)
	}
	// At most quota × windows (no reserve ever accumulates beyond the
	// start; the group was never idle).
	if th.UsageUs > 50_000*20 {
		t.Fatalf("sustained usage %d exceeds quota rate %d", th.UsageUs, 50_000*20)
	}
}

// Property: the burst reserve never exceeds BurstUs and usage per window
// never exceeds quota + burst.
func TestQuickBurstInvariants(t *testing.T) {
	f := func(quota16, burst16 uint16, duty uint8) bool {
		quota := int64(quota16)%80_000 + 10_000
		burst := int64(burst16) % (quota + 1)
		s := New(1)
		g := s.NewGroup(nil, "g")
		if err := g.SetQuota(quota, 100_000); err != nil {
			return false
		}
		if err := g.SetBurst(burst); err != nil {
			return false
		}
		d := float64(duty%100) / 100
		s.NewThread(g, func(now, dt int64) float64 {
			// Alternate idle/busy windows.
			if (now/100_000)%2 == 0 {
				return d
			}
			return 1
		})
		var prevUsage int64
		for w := 0; w < 20; w++ {
			for i := 0; i < 10; i++ {
				s.Tick(tick)
			}
			used := g.UsageUs - prevUsage
			prevUsage = g.UsageUs
			if used > quota+burst {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
