package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"vfreq/internal/platform"
)

// The oracle is the one reference for stages 1–6 of a Step (DESIGN.md
// §12). It runs the paper's stages literally over plain slices and calls
// no production stage function:
//
//  1. u = usage − the last reading, floored at 0 (a counter reset) and
//     capped at PeriodUs, pushed on a history of HistoryLen; a vCPU's
//     first reading after registration spans no time;
//  2. Eq. 3's trend by the sums formula, the three trigger cases against
//     max(cap, MinQuotaUs), the stability margin floored at 1, the
//     estimate clamped to [MinQuotaUs, PeriodUs]; no history, no change;
//  3. Eq. 4 credits with the wallet clamp, then Eq. 5's min(e, C_i);
//  4. Eq. 6's market floored at 0, sold by Algorithm 1 (oracleAuction);
//  5. the rest given in proportion to residual demand, the integer
//     residue to the largest residual demand, earliest on ties;
//  6. quota = cap × CgroupPeriodUs ÷ PeriodUs, floored at MinQuotaUs.
//
// A vCPU whose usage read failed, or whose VM's breaker is open, is
// degraded: it keeps its reading, history, estimate and cap, earns no
// credit and buys nothing, and its cgroup is not compared (Check's
// clause). Which reads fail, which VMs are quarantined at a Step's start
// and which trip at its end are inputs: they are the host's and the
// breaker's, not a stage's.
//
// Kill list. Each one-line mutation of the production code below turns
// TestControllerMatchesOracle red:
//
//  1. monitorVCPU drops the `u > PeriodUs` clamp;
//  2. monitorVCPU drops the counter-reset floor `u = 0`;
//  3. estimate drops the `eps ≥ 1` floor;
//  4. estimate drops the MinQuotaUs floor of the trigger base;
//  5. estimate's stable case drops its `+ 1`;
//  6. estimate drops the PeriodUs ceiling;
//  7. estimate drops the MinQuotaUs floor;
//  8. estimate drops the empty-history guard;
//  9. the increase case multiplies u instead of the cap;
//  10. the decrease case multiplies u instead of the cap;
//  11. the increase case tests u against DecreaseTrigger;
//  12. estimateAll estimates degraded vCPUs;
//  13. enforceBase credits degraded vCPUs (Eq. 4);
//  14. enforceBase credits C_i − e instead of C_i − u;
//  15. enforceBase credits a vCPU that used more than C_i;
//  16. clampCredit returns before clamping;
//  17. clampCredit bounds the wallet by one vCPU's guarantee;
//  18. enforceBase caps at the estimate alone (Eq. 5's min dropped);
//  19. market subtracts only healthy vCPUs' caps;
//  20. buyers lets degraded vCPUs buy;
//  21. sortByCredit compares with `<=` (ties lose their order);
//  22. auction sorts once, before the first round;
//  23. auction debits the first VM's wallet instead of the buyer's;
//  24. auction drops the window bound;
//  25. auction drops the market bound;
//  26. auction drops the wallet bound;
//  27. distribute gives every buyer an equal share;
//  28. distribute gives the residue to the latest of equal demands;
//  29. distribute drops its residue pass;
//  30. distribute drops the `market > total` clamp;
//  31. quotaFor drops the MinQuotaUs floor;
//  32. quotaFor scales by PeriodUs ÷ CgroupPeriodUs.
type oracle struct {
	cfg           Config
	cores, maxMHz int64
	vms           []*refVM
}

// refVM is one VM as the oracle keeps it: C_i of Eq. 2 and the wallet.
type refVM struct {
	name      string
	freq      int64
	g, wallet int64
	vcpus     []*refVCPU
}

// refVCPU is one vCPU as the oracle keeps it.
type refVCPU struct {
	hist     []int64 // the last HistoryLen u, oldest first
	prev, u  int64   // the usage counter last read; u of the last period
	est, cap int64
	fresh    bool // registered, not read yet
	degraded bool
}

func (o *oracle) find(name string) *refVM {
	for _, vm := range o.vms {
		if vm.name == name {
			return vm
		}
	}
	return nil
}

// step runs stages 1–6 over the host's listing and usage counters. failed
// names the vCPUs whose usage read fails, open the VMs quarantined at the
// Step's start.
func (o *oracle) step(list []platform.VMInfo, usage func(string, int) int64, failed func(string, int) bool, open map[string]bool) {
	cfg := o.cfg
	listed := map[string]bool{}
	for _, info := range list {
		listed[info.Name] = true
		vm := o.find(info.Name)
		if vm == nil {
			vm = &refVM{name: info.Name}
			o.vms = append(o.vms, vm)
		}
		if info.FreqMHz != vm.freq {
			vm.freq, vm.g = info.FreqMHz, cfg.PeriodUs*info.FreqMHz/o.maxMHz // Eq. 2
		}
		for j := len(vm.vcpus); j < info.VCPUs; j++ {
			vm.vcpus = append(vm.vcpus, &refVCPU{prev: usage(info.Name, j), est: vm.g, cap: vm.g, fresh: true})
		}
		vm.vcpus = vm.vcpus[:info.VCPUs]
	}
	o.vms = slices.DeleteFunc(o.vms, func(vm *refVM) bool { return !listed[vm.name] })

	for _, vm := range o.vms { // stage 1
		if open[vm.name] {
			continue
		}
		for j, v := range vm.vcpus {
			if v.degraded = failed(vm.name, j); v.degraded {
				continue
			}
			now := usage(vm.name, j)
			if v.fresh {
				v.prev, v.fresh = now, false
				continue
			}
			v.u = min(max(now-v.prev, 0), cfg.PeriodUs)
			v.prev = now
			v.hist = append(v.hist, v.u)
			if len(v.hist) > cfg.HistoryLen {
				v.hist = v.hist[1:]
			}
		}
	}
	for _, vm := range o.vms { // stages 2 and 3
		for _, v := range vm.vcpus {
			if !v.degraded && len(v.hist) > 0 {
				v.est = o.estimate(v)
				if vm.g > v.u {
					vm.wallet += vm.g - v.u // Eq. 4
				}
			}
		}
		if cfg.CreditCapPeriods > 0 {
			vm.wallet = min(vm.wallet, cfg.CreditCapPeriods*vm.g*int64(len(vm.vcpus)))
		}
		for _, v := range vm.vcpus {
			if !v.degraded {
				v.cap = min(v.est, vm.g) // Eq. 5
			}
		}
	}
	market := o.cores * cfg.PeriodUs // stage 4: Eq. 6, then Algorithm 1
	var wallets []int64
	var buyers []refBuyer
	var healthy []*refVCPU
	for i, vm := range o.vms {
		wallets = append(wallets, vm.wallet)
		for _, v := range vm.vcpus {
			market -= v.cap
			if !v.degraded {
				buyers = append(buyers, refBuyer{vm: i, cap: v.cap, est: v.est})
				healthy = append(healthy, v)
			}
		}
	}
	left := oracleAuction(wallets, buyers, max(market, 0), cfg.WindowUs)
	for i, vm := range o.vms {
		vm.wallet = wallets[i]
	}
	var hungry []*refVCPU // stage 5
	var demand int64
	for k, v := range healthy {
		if v.cap = buyers[k].cap; v.cap < v.est {
			hungry = append(hungry, v)
			demand += v.est - v.cap
		}
	}
	give := min(left, demand)
	rest := give
	for _, v := range hungry {
		share := give * (v.est - v.cap) / demand
		v.cap += share
		rest -= share
	}
	for rest > 0 {
		var best *refVCPU
		for _, v := range hungry {
			if best == nil || v.est-v.cap > best.est-best.cap {
				best = v
			}
		}
		if best == nil || best.cap == best.est {
			break
		}
		n := min(rest, best.est-best.cap)
		best.cap += n
		rest -= n
	}
}

// estimate is stage 2 for one vCPU with a history.
func (o *oracle) estimate(v *refVCPU) int64 {
	cfg := o.cfg
	n := float64(len(v.hist))
	var sx, sy, sxx, sxy float64
	for i, y := range v.hist {
		x := float64(i + 1)
		sx, sy, sxx, sxy = sx+x, sy+float64(y), sxx+x*x, sxy+x*float64(y)
	}
	var trend float64 // Eq. 3
	if len(v.hist) >= 2 {
		trend = (n*sxy - sx*sy) / (n*sxx - sx*sx)
	}
	eps := math.Max(cfg.StableMargin*(sy/n), 1)
	base, u := max(v.cap, cfg.MinQuotaUs), float64(v.u)
	var est int64
	switch {
	case trend > eps && u >= cfg.IncreaseTrigger*float64(base):
		est = int64(float64(base) * (1 + cfg.IncreaseFactor))
	case trend < -eps && u <= cfg.DecreaseTrigger*float64(base):
		est = int64(float64(base) * (1 - cfg.DecreaseFactor))
	default:
		est = int64(u/cfg.IncreaseTrigger) + 1
	}
	return min(max(est, cfg.MinQuotaUs), cfg.PeriodUs)
}

// quota is stage 6 for one cap.
func (o *oracle) quota(cap int64) int64 {
	return max(cap*o.cfg.CgroupPeriodUs/o.cfg.PeriodUs, o.cfg.MinQuotaUs)
}

// diff names the first VM, wallet, degradation, reading, estimate, cap or
// healthy vCPU's cpu.max on which the controller and its host differ from
// the oracle.
func (o *oracle) diff(c *Controller, h *platform.Scripted) error {
	vms := c.VMs()
	if len(vms) != len(o.vms) {
		return fmt.Errorf("controller tracks %d VMs, oracle %d", len(vms), len(o.vms))
	}
	for i, st := range vms {
		r := o.vms[i]
		if st.Info.Name != r.name || st.GuaranteeUs != r.g || st.CreditUs != r.wallet || len(st.VCPUs) != len(r.vcpus) {
			return fmt.Errorf("VM %d: %s C_i %d wallet %d with %d vCPUs, oracle %s %d %d with %d",
				i, st.Info.Name, st.GuaranteeUs, st.CreditUs, len(st.VCPUs), r.name, r.g, r.wallet, len(r.vcpus))
		}
		for j, v := range st.VCPUs {
			w := r.vcpus[j]
			if v.Degraded != w.degraded || v.LastU != w.u || v.EstUs != w.est || v.CapUs != w.cap {
				return fmt.Errorf("%s/vcpu%d degraded %v u %d est %d cap %d, oracle %v %d %d %d",
					r.name, j, v.Degraded, v.LastU, v.EstUs, v.CapUs, w.degraded, w.u, w.est, w.cap)
			}
			if q := h.VCPU(r.name, j); !w.degraded && (q.QuotaUs != o.quota(w.cap) || q.PeriodUs != o.cfg.CgroupPeriodUs) {
				return fmt.Errorf("%s/vcpu%d cgroup holds %d/%d, oracle %d/%d",
					r.name, j, q.QuotaUs, q.PeriodUs, o.quota(w.cap), o.cfg.CgroupPeriodUs)
			}
		}
	}
	return nil
}

// oracleAuction is Algorithm 1 over plain slices: it sells market cycles
// to buyers, given in registration order, and returns the cycles left
// unsold. Each round it stable-sorts the buyers still hungry by their VM's
// wallet, descending; a buyer gets the least of the window, its want
// (est − cap), the market and its wallet, which pays. A buyer stays while
// it wants more and its wallet holds credit; the auction ends when the
// market is sold, nobody is left, or a round sells nothing. Caps and
// wallets are updated in place.
func oracleAuction(wallets []int64, buyers []refBuyer, market, window int64) int64 {
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
		slices.SortStableFunc(hungry, func(a, b *refBuyer) int {
			return cmp.Compare(wallets[b.vm], wallets[a.vm])
		})
		sold := false
		next := hungry[:0]
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

// refBuyer is one vCPU offered to oracleAuction: the index of its VM's
// wallet, its cap and its estimate.
type refBuyer struct {
	vm       int
	cap, est int64
}

// twin steps a Controller over a platform.Scripted host beside the
// oracle. A platform.FaultyHost between them fails the usage reads of the
// vCPUs in failing.
type twin struct {
	t       *testing.T
	h       *platform.Scripted
	c       *Controller
	o       *oracle
	failing map[platform.VCPURef]int // Steps left to fail
	// want is what a vCPU would run in the coming period, unthrottled.
	want func(platform.VCPURef) int64
}

func newTwin(t *testing.T, node platform.NodeInfo, cfg Config) *twin {
	tw := &twin{t: t, h: platform.NewScripted(node), failing: map[platform.VCPURef]int{}}
	fh := platform.WithFaults(tw.h, 1)
	fh.MustPlan(platform.SiteUsage, platform.FaultPlan{Persistent: true,
		Match: func(vm string, j int) bool { return tw.failing[platform.VCPURef{VM: vm, VCPU: j}] > 0 }})
	tw.c = mustController(t, fh, cfg)
	tw.o = &oracle{cfg: cfg, cores: int64(node.Cores), maxMHz: node.MaxFreqMHz}
	return tw
}

// step runs one period: every listed vCPU runs what it wants up to its
// cgroup's quota, then the controller and the oracle step and are
// compared, and Check runs when check is set.
func (tw *twin) step(check bool) {
	t, cfg := tw.t, tw.o.cfg
	for _, info := range vmsOf(tw.h) {
		for j := 0; j < info.VCPUs; j++ {
			u := min(tw.want(platform.VCPURef{VM: info.Name, VCPU: j}), cfg.PeriodUs)
			if v := tw.h.VCPU(info.Name, j); v.QuotaUs != platform.NoQuota {
				u = min(u, v.QuotaUs*cfg.PeriodUs/v.PeriodUs)
			}
			tw.h.Consume(info.Name, j, u)
		}
	}
	open := map[string]bool{}
	for _, st := range tw.c.VMs() {
		open[st.Info.Name] = st.Breaker.State == BreakerOpen
	}
	if err := tw.c.Step(); err != nil {
		t.Fatalf("step %d: %v", tw.c.Steps()+1, err)
	}
	tw.o.step(vmsOf(tw.h),
		func(vm string, j int) int64 { return tw.h.VCPU(vm, j).UsageUs },
		func(vm string, j int) bool { return tw.failing[platform.VCPURef{VM: vm, VCPU: j}] > 0 },
		open)
	for _, st := range tw.c.VMs() {
		if !open[st.Info.Name] && st.Breaker.State == BreakerOpen { // tripped
			for _, v := range tw.o.find(st.Info.Name).vcpus {
				v.degraded = true
			}
		}
	}
	if err := tw.o.diff(tw.c, tw.h); err != nil {
		t.Fatalf("step %d: %v", tw.c.Steps(), err)
	}
	if check {
		if err := tw.c.Check(); err != nil {
			t.Fatalf("step %d: %v", tw.c.Steps(), err)
		}
	}
	for ref, n := range tw.failing {
		if n <= 1 {
			delete(tw.failing, ref)
		} else {
			tw.failing[ref] = n - 1
		}
	}
}

// fits reports whether Eq. 7 holds with VM name at vcpus × freq.
func (tw *twin) fits(name string, vcpus int, freq int64) bool {
	sum := int64(vcpus) * freq
	for _, info := range vmsOf(tw.h) {
		if info.Name != name {
			sum += int64(info.VCPUs) * info.FreqMHz
		}
	}
	return sum <= tw.o.cores*tw.o.maxMHz
}

// TestControllerMatchesOracle steps the controller and the oracle side by
// side over seeded schedules and compares every VM, wallet, degradation,
// reading, estimate, cap and healthy vCPU's cpu.max after every Step
// under ==, with Controller.Check every 20th Step and every 5th while a
// read fails.
//
// Each seed draws a node, a tuning and an Eq. 7 mix of the paper's
// frequencies, then 300 periods in which every vCPU moves between idle,
// near-idle (a few µs, where the stability margin's floor decides),
// partial and saturated demand. VMs arrive, depart and restart at any
// age (a new thread id; a counter reset, or not yet, where the old one had
// not passed what the new one reads); templates change frequency and vCPU
// count, now and then past Eq. 7 (the empty market); usage reads fail for
// one to three Steps (a delta spanning periods, clamped to one period); a
// third of the seeds arm the breaker, whose quarantine holds a whole VM.
func TestControllerMatchesOracle(t *testing.T) {
	freqs := []int64{500, 600, 1200, 1800, 2400}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		node := platform.NodeInfo{Name: "oracle", Cores: []int{2, 4, 8}[rng.Intn(3)], MaxFreqMHz: 2400}
		cfg := DefaultConfig()
		cfg.HistoryLen = 2 + rng.Intn(4)
		cfg.CreditCapPeriods = []int64{0, 2, 60}[rng.Intn(3)]
		cfg.WindowUs = []int64{1_000, 10_000, 100_000}[rng.Intn(3)]
		cfg.CgroupPeriodUs = []int64{100_000, 100_000, 250_000, 1_000_000}[rng.Intn(4)]
		cfg.MinQuotaUs = []int64{1_000, 1_000, 20_000, 300_000}[rng.Intn(4)]
		if rng.Intn(3) == 0 {
			cfg.BreakerThreshold, cfg.BreakerOpenSteps = 2, 2
		}
		tw := newTwin(t, node, cfg)
		type load struct{ phase, level int64 }
		loads := map[platform.VCPURef]*load{}
		tw.want = func(ref platform.VCPURef) int64 {
			l := loads[ref]
			if l == nil || rng.Intn(12) == 0 {
				l = &load{phase: rng.Int63n(4), level: rng.Int63n(cfg.PeriodUs)}
				loads[ref] = l
			}
			switch l.phase {
			case 0:
				return 0
			case 1:
				return rng.Int63n(40)
			case 2:
				return l.level/2 + rng.Int63n(l.level/2+1)
			}
			return cfg.PeriodUs
		}
		next := 0
		add := func() {
			name, vcpus, freq := fmt.Sprintf("vm%d", next), 1+rng.Intn(4), freqs[rng.Intn(len(freqs))]
			if tw.fits(name, vcpus, freq) {
				tw.h.AddVM(name, vcpus, freq)
				next++
			}
		}
		for i := 0; i < 6; i++ {
			add()
		}
		for step := 0; step < 300; step++ {
			vms := vmsOf(tw.h)
			var vm platform.VMInfo
			if len(vms) > 0 {
				vm = vms[rng.Intn(len(vms))]
			}
			switch r := rng.Intn(100); {
			case r < 3 || vm.Name == "":
				add()
			case r < 5:
				tw.h.RemoveVM(vm.Name)
			case r < 7:
				tw.h.RemoveVM(vm.Name)
				tw.h.AddVM(vm.Name, vm.VCPUs, vm.FreqMHz)
			case r < 10:
				vcpus, freq := max(1, vm.VCPUs+rng.Intn(3)-1), freqs[rng.Intn(len(freqs))]
				if rng.Intn(4) == 0 || tw.fits(vm.Name, vcpus, freq) {
					tw.h.SetTemplate(vm.Name, vcpus, freq)
				}
			case r < 14:
				if st := tw.c.VM(vm.Name); st != nil && st.Breaker.State != BreakerOpen && len(st.VCPUs) == vm.VCPUs {
					tw.failing[platform.VCPURef{VM: vm.Name, VCPU: rng.Intn(vm.VCPUs)}] = 1 + rng.Intn(3)
				}
			}
			for ref := range tw.failing {
				if tw.c.VM(ref.VM) == nil || tw.h.VCPU(ref.VM, ref.VCPU) == nil {
					delete(tw.failing, ref) // the VM or the vCPU has gone
				}
			}
			tw.step(step%20 == 0 || len(tw.failing) > 0 && step%5 == 0)
		}
	}
}

// TestTrackingBound holds the estimator's tracking bound (after Makridis
// et al., "Robust Dynamic CPU Resource Provisioning in Virtualized
// Servers", PAPERS.md) on oracle-checked schedules: a busy vCPU idles,
// then saturates. After at least HistoryLen idle periods its history is
// flat at 0 and its cap at MinQuotaUs, and the increase case doubles the
// cap each period: it reaches 0.95 × C_i within
// k = ⌈log₂(0.95 × C_i ÷ MinQuotaUs)⌉ periods, 8/9/10/10 for
// 600/1 200/1 800/2 400 MHz on a 2 400 MHz node. After a shorter idle the
// cap has only decayed by the decrease factor, and it takes at most 2.
func TestTrackingBound(t *testing.T) {
	cfg := DefaultConfig()
	node := platform.NodeInfo{Name: "track", Cores: 4, MaxFreqMHz: 2400}
	for _, freq := range []int64{600, 1200, 1800, 2400} {
		g := cfg.PeriodUs * freq / node.MaxFreqMHz
		k := int(math.Ceil(math.Log2(0.95 * float64(g) / float64(cfg.MinQuotaUs))))
		for idle := 1; idle <= cfg.HistoryLen+2; idle++ {
			tw := newTwin(t, node, cfg)
			tw.h.AddVM("vm", 1, freq)
			const busy = 10
			period := 0
			tw.want = func(platform.VCPURef) int64 {
				if period > busy && period <= busy+idle {
					return 0
				}
				return cfg.PeriodUs
			}
			for ; period <= busy+idle; period++ {
				tw.step(true)
			}
			took := 0
			for ; tw.c.VM("vm").VCPUs[0].CapUs < g*95/100 && took <= k; period++ {
				took++
				tw.step(true)
			}
			bound := 2
			if idle >= cfg.HistoryLen {
				bound = k
			}
			if took > bound {
				t.Errorf("%d MHz after %d idle periods: cap reached 0.95 × C_i in %d periods, bound %d", freq, idle, took, bound)
			}
		}
	}
}
