package core

import (
	"fmt"
	"sort"
)

// referenceAuction is Algorithm 1 written literally over plain slices: the
// independent statement FuzzAuction and TestQuickAuctionConservation hold
// the production auction to, with == on every cap, every wallet and the
// market it returns.
//
// It sells market cycles to buyers, given in registration order, at most
// window cycles per buyer per round, and returns the cycles left unsold.
// Each round it stable-sorts the buyers still hungry by their VM's wallet,
// descending; a buyer gets the least of the window, its want (est − cap),
// the market and its wallet, which pays. A buyer stays for the next round
// while it wants more and its wallet holds credit; the auction ends when
// the market is sold, nobody is left, or a round sells nothing. Caps and
// wallets are updated in place.
//
// Kill list. Each mutation of the production auction below turns
// TestQuickAuctionConservation red, and FuzzAuction's seed corpus catches
// the last two; without the reference, the first two leave the package
// green:
//
//  1. sortByCredit compares with `<=` (ties no longer keep their order);
//  2. auction sorts once, before the first round, instead of every round;
//  3. auction debits the first registered VM's wallet instead of the
//     buyer's own;
//  4. auction drops the market bound (`amount > market`).
func referenceAuction(wallets []int64, buyers []refBuyer, market, window int64) int64 {
	if market <= 0 {
		return 0
	}
	var hungry []*refBuyer
	for i := range buyers {
		if buyers[i].cap < buyers[i].est {
			hungry = append(hungry, &buyers[i])
		}
	}
	for market > 0 && len(hungry) > 0 {
		sort.SliceStable(hungry, func(i, j int) bool {
			return wallets[hungry[i].vm] > wallets[hungry[j].vm]
		})
		sold := false
		var next []*refBuyer
		for _, b := range hungry {
			if amount := min(window, b.est-b.cap, market, wallets[b.vm]); amount > 0 {
				b.cap += amount
				wallets[b.vm] -= amount
				market -= amount
				sold = true
			}
			if b.cap < b.est && wallets[b.vm] > 0 {
				next = append(next, b)
			}
		}
		hungry = next
		if !sold {
			break
		}
	}
	return market
}

// refBuyer is one vCPU offered to referenceAuction: the index of its VM's
// wallet, its cap and its estimate.
type refBuyer struct {
	vm       int
	cap, est int64
}

// auctionInputs is a controller's pre-auction state as referenceAuction
// takes it: one wallet per VM and one buyer per vCPU, in registration
// order. Every vCPU must be healthy: the auction skips degraded ones, and
// the reference knows of none.
func auctionInputs(c *Controller) (wallets []int64, buyers []refBuyer) {
	for i, st := range c.VMs() {
		wallets = append(wallets, st.CreditUs)
		for _, v := range st.VCPUs {
			buyers = append(buyers, refBuyer{vm: i, cap: v.CapUs, est: v.EstUs})
		}
	}
	return wallets, buyers
}

// diffReference runs referenceAuction over the inputs auctionInputs took
// before c.auction(market) returned left, and names the first cap, wallet
// or leftover on which the controller differs from it.
func diffReference(c *Controller, wallets []int64, buyers []refBuyer, market, left int64) error {
	if want := referenceAuction(wallets, buyers, market, c.cfg.WindowUs); left != want {
		return fmt.Errorf("auction left %d of market %d, reference %d", left, market, want)
	}
	k := 0
	for i, st := range c.VMs() {
		if st.CreditUs != wallets[i] {
			return fmt.Errorf("%s wallet %d, reference %d", st.Info.Name, st.CreditUs, wallets[i])
		}
		for _, v := range st.VCPUs {
			if v.CapUs != buyers[k].cap {
				return fmt.Errorf("%s/vcpu%d cap %d, reference %d", v.VM, v.Index, v.CapUs, buyers[k].cap)
			}
			k++
		}
	}
	return nil
}
