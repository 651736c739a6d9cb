package core

// estimateAll implements stage 2: per-vCPU estimation of the upcoming
// consumption, using the Eq. 3 trend over the consumption history and the
// trigger/factor mechanism of §III-B2. Degraded vCPUs have no fresh
// measurement to estimate from and keep their previous estimate.
func (c *Controller) estimateAll() {
	for _, st := range c.order {
		for _, v := range st.VCPUs {
			if v.Degraded {
				continue
			}
			v.EstUs = c.estimate(v)
		}
	}
}

// estimate computes e_{i,j,t} for one vCPU.
func (c *Controller) estimate(v *VCPUState) int64 {
	if v.Hist.Len() == 0 {
		// No consumption has been observed yet: keep the initial
		// guarantee-level estimate rather than reacting to a
		// phantom zero sample.
		return v.EstUs
	}
	cap := v.CapUs
	if cap < c.cfg.MinQuotaUs {
		cap = c.cfg.MinQuotaUs
	}
	u := v.LastU
	trend := v.Hist.Trend()
	// The stability margin is relative to the magnitude of the signal.
	eps := c.cfg.StableMargin * v.Hist.Mean()
	if eps < 1 {
		eps = 1
	}

	var est int64
	switch {
	case trend > eps && float64(u) >= c.cfg.IncreaseTrigger*float64(cap):
		// a) consumption is rising and pushing against the cap:
		// raise by the increase factor for fast convergence.
		est = int64(float64(cap) * (1 + c.cfg.IncreaseFactor))
	case trend < -eps && float64(u) <= c.cfg.DecreaseTrigger*float64(cap):
		// b) consumption is falling well below the cap: shrink
		// gently to avoid oscillation.
		est = int64(float64(cap) * (1 - c.cfg.DecreaseFactor))
	default:
		// c) stable: recalibrate just above the observed
		// consumption so the increase trigger does not fire next
		// iteration, while wasting as few cycles as possible.
		est = int64(float64(u)/c.cfg.IncreaseTrigger) + 1
	}
	if est < c.cfg.MinQuotaUs {
		est = c.cfg.MinQuotaUs
	}
	// A vCPU is a single thread: it can never use more than one core.
	if est > c.cfg.PeriodUs {
		est = c.cfg.PeriodUs
	}
	return est
}

// enforceBase implements stage 3: award credits (Eq. 4) and set the base
// capping c = min(e, C_i) (Eq. 5).
func (c *Controller) enforceBase() {
	for _, st := range c.order {
		// Eq. 4: credits accrue for every vCPU consuming less than
		// the guarantee. vCPUs without a measurement yet — warm or
		// degraded — earn nothing.
		for _, v := range st.VCPUs {
			if v.Degraded {
				continue
			}
			if v.Hist.Len() > 0 && st.GuaranteeUs > v.LastU {
				st.CreditUs += st.GuaranteeUs - v.LastU
			}
		}
		c.clampCredit(st)
		// Eq. 5: guarantee the base frequency, never allocate more
		// than estimated. A degraded vCPU holds its last-known-good
		// cap instead of recomputing from stale data.
		for _, v := range st.VCPUs {
			if v.Degraded {
				continue
			}
			if v.EstUs < st.GuaranteeUs {
				v.CapUs = v.EstUs
			} else {
				v.CapUs = st.GuaranteeUs
			}
		}
	}
}

// clampCredit bounds a VM's wallet at Config.CreditCapPeriods periods of
// its whole guarantee (0 leaves it unbounded).
func (c *Controller) clampCredit(st *VMState) {
	if c.cfg.CreditCapPeriods <= 0 {
		return
	}
	if cap := c.cfg.CreditCapPeriods * st.GuaranteeUs * int64(len(st.VCPUs)); st.CreditUs > cap {
		st.CreditUs = cap
	}
}

// auction implements stage 4 (Algorithm 1): sell the market's cycles to
// buyers, window-limited per round, charging the VM wallets. It returns
// the cycles left unsold.
func (c *Controller) auction(market int64) int64 {
	if market <= 0 {
		return 0
	}
	buyers := c.buyers()
	for market > 0 && len(buyers) > 0 {
		c.sortByCredit(buyers)
		progress := false
		next := buyers[:0]
		for _, v := range buyers {
			st := v.vm
			if market <= 0 {
				next = append(next, v)
				continue
			}
			amount := c.cfg.WindowUs
			if want := v.EstUs - v.CapUs; amount > want {
				amount = want
			}
			if amount > market {
				amount = market
			}
			if amount > st.CreditUs {
				amount = st.CreditUs
			}
			if amount > 0 {
				v.CapUs += amount
				st.CreditUs -= amount
				market -= amount
				progress = true
			}
			if v.CapUs < v.EstUs && st.CreditUs > 0 {
				next = append(next, v)
			}
		}
		buyers = next
		if !progress {
			break // nobody can afford anything
		}
	}
	return market
}

// distribute implements stage 5: the cycles the auction could not sell are
// given away to still-hungry vCPUs, proportionally to their residual
// demand (e − c).
func (c *Controller) distribute(market int64) {
	if market <= 0 {
		return
	}
	hungry := c.buyers()
	var total int64
	for _, v := range hungry {
		total += v.EstUs - v.CapUs
	}
	if total <= 0 {
		return
	}
	if market > total {
		market = total
	}
	remaining := market
	for _, v := range hungry {
		give := market * (v.EstUs - v.CapUs) / total
		if give > remaining {
			give = remaining
		}
		v.CapUs += give
		remaining -= give
	}
	// Integer-division residue: the floored proportional pass can leave
	// up to len(hungry)−1 cycles neither given nor returned. Award the
	// remainder to the largest-residual-demand buyer (earliest in
	// registration order on ties), spilling to the next-largest if its
	// headroom runs out, so the market is drained exactly whenever
	// demand remains.
	for remaining > 0 {
		var best *VCPUState
		var bestHead int64
		for _, v := range hungry {
			if head := v.EstUs - v.CapUs; head > bestHead {
				bestHead, best = head, v
			}
		}
		if best == nil {
			break // every buyer is at its estimate
		}
		give := remaining
		if give > bestHead {
			give = bestHead
		}
		best.CapUs += give
		remaining -= give
	}
}

// quotaFor translates one vCPU's cycle allocation (per control period p)
// into the cpu.max quota written against the shorter cgroup bandwidth
// period, floored at MinQuotaUs so an idle vCPU can always wake up.
func (c *Controller) quotaFor(v *VCPUState) int64 {
	quota := v.CapUs * c.cfg.CgroupPeriodUs / c.cfg.PeriodUs
	if quota < c.cfg.MinQuotaUs {
		quota = c.cfg.MinQuotaUs
	}
	return quota
}

// apply implements stage 6: translate the per-vCPU cycle allocations into
// cgroup cpu.max quotas. Allocations are expressed per control period p;
// quotas are written against the (shorter) cgroup bandwidth period.
//
// Application is incremental: each vCPU caches the (quota, period) last
// written successfully, and a vCPU whose fresh quota matches the cache is
// skipped, so a steady-state step issues no host writes at all. The cache
// is dropped whenever the cgroup may no longer hold what was written (see
// VCPUState.invalidateApplied), so a skipped write can never leave a
// stale cap behind. Each dirty quota is one SetMax through hostCall,
// timed, retried and budgeted like every other host call.
//
// Application is fault-isolated: a final write failure degrades that
// vCPU alone (its cgroup keeps the previous quota, which equals the held
// cap) while every healthy vCPU still gets its fresh quota. vCPUs
// already degraded in monitoring are skipped — their cap is unchanged,
// so the quota in the cgroup is already the one we would write.
func (c *Controller) apply(rep *StepReport) {
	period := c.cfg.CgroupPeriodUs
	for _, st := range c.order {
		for _, v := range st.VCPUs {
			if v.Degraded {
				continue
			}
			quota := c.quotaFor(v)
			if v.appliedQuotaOK && v.appliedQuotaUs == quota && v.appliedPeriodUs == period {
				continue
			}
			_, retried, err := c.hostCall(opSetMax, v.VM, v.Index, quota, period)
			if retried {
				rep.Retries++
			}
			if err != nil {
				c.degrade(rep, v, "apply", opSetMax, err)
				continue
			}
			v.appliedQuotaUs = quota
			v.appliedPeriodUs = period
			v.appliedQuotaOK = true
		}
	}
}

// TotalGuaranteeUs returns Σ C_i × vCPUs over all hosted VMs, useful to
// check the Eq. 7 feasibility of the current placement.
func (c *Controller) TotalGuaranteeUs() int64 {
	var total int64
	for _, st := range c.order {
		total += st.GuaranteeUs * int64(len(st.VCPUs))
	}
	return total
}

// CapacityUs returns the machine capacity per period (cores × p).
func (c *Controller) CapacityUs() int64 {
	return int64(c.node.Cores) * c.cfg.PeriodUs
}
