package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"vfreq/internal/platform"
)

// Property: the auction conserves value — cycles bought equal credits
// spent, the market shrinks by exactly the amount sold, and nobody buys
// beyond their estimate — and sells exactly what referenceAuction sells.
func TestQuickAuctionConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := newFakeHost()
		n := rng.Intn(5) + 1
		for i := 0; i < n; i++ {
			h.AddVM(fmt.Sprintf("vm%d", i), rng.Intn(2)+1, int64(rng.Intn(2000)+200))
		}
		c, err := New(h, DefaultConfig())
		if err != nil {
			return false
		}
		if err := c.Step(); err != nil {
			return false
		}
		// Randomise the pre-auction state.
		var capsBefore, creditsBefore int64
		for _, st := range c.VMs() {
			st.CreditUs = int64(rng.Intn(2_000_000))
			creditsBefore += st.CreditUs
			for _, v := range st.VCPUs {
				v.CapUs = int64(rng.Intn(500_000))
				v.EstUs = v.CapUs + int64(rng.Intn(500_000))
				capsBefore += v.CapUs
			}
		}
		market := int64(rng.Intn(2_000_000))
		wallets, buyers := auctionInputs(c)
		left := c.auction(market)
		if err := diffReference(c, wallets, buyers, market, left); err != nil {
			t.Log(err)
			return false
		}
		if left < 0 || left > market {
			return false
		}
		var capsAfter, creditsAfter int64
		for _, st := range c.VMs() {
			if st.CreditUs < 0 {
				return false
			}
			creditsAfter += st.CreditUs
			for _, v := range st.VCPUs {
				if v.CapUs > v.EstUs {
					return false // bought beyond estimate
				}
				capsAfter += v.CapUs
			}
		}
		sold := market - left
		if capsAfter-capsBefore != sold {
			return false // cycles created or destroyed
		}
		if creditsBefore-creditsAfter != sold {
			return false // credits charged ≠ cycles sold
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: free distribution never hands out more than the market or
// beyond any estimate, and hands out everything when demand suffices.
func TestQuickDistributeConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := newFakeHost()
		n := rng.Intn(5) + 1
		for i := 0; i < n; i++ {
			h.AddVM(fmt.Sprintf("vm%d", i), rng.Intn(2)+1, int64(rng.Intn(2000)+200))
		}
		c, err := New(h, DefaultConfig())
		if err != nil {
			return false
		}
		if err := c.Step(); err != nil {
			return false
		}
		var capsBefore, demand int64
		for _, st := range c.VMs() {
			for _, v := range st.VCPUs {
				v.CapUs = int64(rng.Intn(500_000))
				v.EstUs = v.CapUs + int64(rng.Intn(300_000))
				capsBefore += v.CapUs
				demand += v.EstUs - v.CapUs
			}
		}
		market := int64(rng.Intn(1_500_000))
		c.distribute(market)
		var capsAfter int64
		for _, st := range c.VMs() {
			for _, v := range st.VCPUs {
				if v.CapUs > v.EstUs {
					return false
				}
				capsAfter += v.CapUs
			}
		}
		given := capsAfter - capsBefore
		if given < 0 {
			return false
		}
		want := market
		if want > demand {
			want = demand
		}
		return given == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: auction then distribute — the full stage 4 + 5 pipeline —
// never leaks a cycle: every market cycle is either sold, given away, or
// still unallocated at the end, and the distribution leaves no rounding
// residue while demand remains.
func TestQuickAuctionDistributePipelineConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := platform.NewScripted(platform.NodeInfo{Name: "fake", Cores: 16, MaxFreqMHz: 2400})
		n := rng.Intn(4) + 2
		for i := 0; i < n; i++ {
			h.AddVM(fmt.Sprintf("vm%d", i), rng.Intn(2)+1, int64(rng.Intn(2000)+200))
		}
		c, err := New(h, DefaultConfig())
		if err != nil {
			return false
		}
		if err := c.Step(); err != nil {
			return false
		}
		var capsBefore, demand int64
		for _, st := range c.VMs() {
			st.CreditUs = int64(rng.Intn(1_000_000))
			for _, v := range st.VCPUs {
				v.CapUs = int64(rng.Intn(400_000))
				v.EstUs = v.CapUs + int64(rng.Intn(400_000))
				capsBefore += v.CapUs
				demand += v.EstUs - v.CapUs
			}
		}
		market := int64(rng.Intn(2_000_000))
		left := c.auction(market)
		c.distribute(left)
		var capsAfter int64
		for _, st := range c.VMs() {
			for _, v := range st.VCPUs {
				if v.CapUs > v.EstUs {
					return false
				}
				capsAfter += v.CapUs
			}
		}
		want := market
		if want > demand {
			want = demand
		}
		// Sold + given must equal the whole market while demand lasted:
		// nothing stranded by the auction or the distribution's integer
		// division.
		return capsAfter-capsBefore == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestDistributeResidueLargestDemand locks the rounding-residue rule:
// the cycles the proportional integer division strands are awarded to
// the largest-residual-demand buyer (spilling to the next-largest), not
// dribbled round-robin or dropped.
func TestDistributeResidueLargestDemand(t *testing.T) {
	h := newFakeHost()
	h.AddVM("a", 3, 1200)
	c := mustController(t, h, DefaultConfig())
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	vs := c.VM("a").VCPUs
	// Residual demands 5, 3, 2 against a market of 4: the floored
	// proportional pass gives 2, 1, 0 and strands 1 cycle, which must
	// go to the largest-demand buyer (vCPU 0).
	demands := []int64{5, 3, 2}
	for i, v := range vs {
		v.CapUs = 100_000
		v.EstUs = 100_000 + demands[i]
	}
	c.distribute(4)
	got := []int64{vs[0].CapUs - 100_000, vs[1].CapUs - 100_000, vs[2].CapUs - 100_000}
	want := []int64{3, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("distribute gave %v, want %v", got, want)
		}
	}
	// Market above demand: every buyer fills to its estimate exactly.
	for i, v := range vs {
		v.CapUs = 100_000
		v.EstUs = 100_000 + demands[i]
	}
	c.distribute(1_000)
	for i, v := range vs {
		if v.CapUs != 100_000+demands[i] {
			t.Fatalf("vCPU %d capped at %d, want %d", i, v.CapUs, 100_000+demands[i])
		}
	}
}

// Property: the estimator output is bounded and monotone in consumption
// for the stable case (higher u never yields a smaller recalibration).
func TestQuickEstimateStableMonotone(t *testing.T) {
	h := newFakeHost()
	c, err := New(h, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := func(u1, u2 uint32) bool {
		a := int64(u1 % 1_000_000)
		b := int64(u2 % 1_000_000)
		if a > b {
			a, b = b, a
		}
		est := func(u int64) int64 {
			v := &VCPUState{Hist: NewHistory(5), CapUs: 1_000_000}
			for i := 0; i < 5; i++ {
				v.Hist.Push(u) // flat history → stable case
			}
			v.LastU = u
			return c.estimate(v)
		}
		ea, eb := est(a), est(b)
		if ea > eb {
			return false
		}
		cfg := c.Config()
		return ea >= cfg.MinQuotaUs && eb <= cfg.PeriodUs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
