package platform

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"
)

// ErrInjected is the default error returned by injected faults.
var ErrInjected = errors.New("platform: injected fault")

// FaultSite names one Host call site for fault injection.
type FaultSite string

// The injectable call sites, one per Host method.
const (
	SiteListVMs     FaultSite = "ListVMs"
	SiteUsage       FaultSite = "UsageUs"
	SiteSetMax      FaultSite = "SetMax"
	SiteBatchSetMax FaultSite = "BatchSetMax"
	SiteClearMax    FaultSite = "ClearMax"
	SiteReadMax     FaultSite = "ReadMax"
	SiteSetBurst    FaultSite = "SetBurst"
	SiteThreadID    FaultSite = "ThreadID"
	SiteLastCPU     FaultSite = "LastCPU"
	SiteCoreFreq    FaultSite = "CoreFreqMHz"
)

// Sites lists every injectable call site.
var Sites = []FaultSite{
	SiteListVMs, SiteUsage, SiteSetMax, SiteBatchSetMax, SiteClearMax,
	SiteReadMax, SiteSetBurst, SiteThreadID, SiteLastCPU, SiteCoreFreq,
}

// SiteByName resolves a call-site name (as spelled in the constants).
func SiteByName(name string) (FaultSite, error) {
	for _, s := range Sites {
		if string(s) == name {
			return s, nil
		}
	}
	valid := make([]string, len(Sites))
	for i, s := range Sites {
		valid[i] = string(s)
	}
	return "", fmt.Errorf("platform: unknown fault site %q (valid sites: %s)",
		name, strings.Join(valid, ", "))
}

// FaultPlan describes when one call site fails or stalls. Combine the
// fields freely — a call fails when any armed error condition matches,
// and is independently delayed when the latency condition matches. A
// plan that can never fire (no error condition and no delay armed) is
// rejected by Plan instead of being silently inert.
type FaultPlan struct {
	// Rate is the independent probability each call fails, in [0, 1].
	Rate float64
	// Count fails the next Count matching calls deterministically
	// (a transient fault: exhausted plans stop firing).
	Count int
	// Persistent fails every matching call until the plan is cleared
	// (a dead vCPU thread or a vanished cgroup).
	Persistent bool
	// Err is the error injected; nil means ErrInjected.
	Err error

	// DelayRate is the independent probability each matching call is
	// additionally delayed, in [0, 1]. Latency and errors are separate
	// conditions: a plan may stall calls without failing them (a slow
	// cgroupfs) or fail them slowly (a timing-out read).
	DelayRate float64
	// DelayUs bounds the injected delay: each fired delay is drawn
	// uniformly from [DelayUs/2, DelayUs] microseconds, deterministic
	// from the host seed. Required (positive) when DelayRate > 0.
	DelayUs int64

	// Match restricts VM-scoped sites (UsageUs, SetMax, BatchSetMax,
	// ClearMax, ReadMax, SetBurst, ThreadID) to particular vCPUs; nil
	// matches all calls. Sites without a VM operand (ListVMs, LastCPU,
	// CoreFreqMHz) ignore it.
	Match func(vm string, vcpu int) bool
}

// vmScoped reports whether calls at the site name a VM and vCPU for
// FaultPlan.Match to look at.
func (s FaultSite) vmScoped() bool {
	return s != SiteListVMs && s != SiteLastCPU && s != SiteCoreFreq
}

// Validate checks the plan's fields for consistency and for at least one
// armed condition, so a plan that can never fire is an error instead of
// a silent no-op.
func (p FaultPlan) Validate() error {
	if p.Rate < 0 || p.Rate > 1 {
		return fmt.Errorf("platform: fault plan rate %g outside [0, 1]", p.Rate)
	}
	if p.Count < 0 {
		return fmt.Errorf("platform: fault plan count %d is negative", p.Count)
	}
	if p.DelayRate < 0 || p.DelayRate > 1 {
		return fmt.Errorf("platform: fault plan delay rate %g outside [0, 1]", p.DelayRate)
	}
	if p.DelayUs < 0 {
		return fmt.Errorf("platform: fault plan delay %d us is negative", p.DelayUs)
	}
	if p.DelayRate > 0 && p.DelayUs <= 0 {
		return fmt.Errorf("platform: fault plan delay rate %g needs a positive DelayUs bound", p.DelayRate)
	}
	if p.DelayRate == 0 && p.DelayUs > 0 {
		return fmt.Errorf("platform: fault plan DelayUs %d needs a positive DelayRate", p.DelayUs)
	}
	if !p.Persistent && p.Count == 0 && p.Rate == 0 && p.DelayRate == 0 {
		return fmt.Errorf("platform: fault plan can never fire (no rate, count, persistence or delay armed)")
	}
	return nil
}

// FaultyHost wraps a Host and injects faults per call site: the test
// double for vCPU threads dying mid-read, cgroups vanishing between
// enumeration and access, noisy /proc reads, and slow cgroupfs calls.
// Like every Host it is driven by one goroutine, so Rate and DelayRate
// plans draw from the seeded rng in call order and a run replays from
// its seed.
type FaultyHost struct {
	inner Host

	rng      *rand.Rand
	plans    map[FaultSite]*FaultPlan
	injected map[FaultSite]int
	delayed  map[FaultSite]int
	calls    map[FaultSite]int

	// met, when armed via ArmMetrics, mirrors the per-site tallies into
	// pre-interned counters; nil records nothing.
	met map[FaultSite]*siteMetrics

	// sleep stalls the caller for an injected delay; replaceable by
	// tests that only want to observe the decision.
	sleep func(time.Duration)
}

// WithFaults wraps h; seed drives the Rate/DelayRate randomness and the
// delay draws so fault and latency sequences are reproducible.
func WithFaults(h Host, seed int64) *FaultyHost {
	return &FaultyHost{
		inner:    h,
		rng:      rand.New(rand.NewSource(seed)),
		plans:    map[FaultSite]*FaultPlan{},
		injected: map[FaultSite]int{},
		delayed:  map[FaultSite]int{},
		calls:    map[FaultSite]int{},
		sleep:    time.Sleep,
	}
}

// Inner returns the wrapped host.
func (f *FaultyHost) Inner() Host { return f.inner }

// Plan arms a fault plan on one call site, replacing any previous plan.
// The plan is validated first: a plan that can never fire (or with
// out-of-range fields) is rejected.
func (f *FaultyHost) Plan(site FaultSite, p FaultPlan) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("%s: %w", site, err)
	}
	f.plans[site] = &p
	return nil
}

// MustPlan arms a plan and panics on a rejected one — the test-site
// shorthand for plans built from literals.
func (f *FaultyHost) MustPlan(site FaultSite, p FaultPlan) {
	if err := f.Plan(site, p); err != nil {
		panic(err)
	}
}

// Clear disarms the plan on one call site.
func (f *FaultyHost) Clear(site FaultSite) {
	delete(f.plans, site)
}

// ClearAll disarms every plan.
func (f *FaultyHost) ClearAll() {
	f.plans = map[FaultSite]*FaultPlan{}
}

// Injected returns how many faults were injected at a site.
func (f *FaultyHost) Injected(site FaultSite) int {
	return f.injected[site]
}

// Delayed returns how many calls were artificially delayed at a site.
func (f *FaultyHost) Delayed(site FaultSite) int {
	return f.delayed[site]
}

// Calls returns how many calls reached a site (injected or not).
func (f *FaultyHost) Calls(site FaultSite) int {
	return f.calls[site]
}

// fail decides whether this call is delayed and/or fails, and sleeps
// the delay. A Count plan hits whichever matching calls arrive first. At
// the sites without a VM operand vcpu carries the tid or the core.
func (f *FaultyHost) fail(site FaultSite, vm string, vcpu int) error {
	f.calls[site]++
	m := f.met[site]
	m.recordCall()
	p := f.plans[site]
	if p == nil {
		return nil
	}
	if p.Match != nil && site.vmScoped() && !p.Match(vm, vcpu) {
		return nil
	}
	if p.DelayRate > 0 && f.rng.Float64() < p.DelayRate {
		// Uniform in [DelayUs/2, DelayUs]: bounded above by the plan,
		// bounded below so a fired delay is never a no-op.
		half := p.DelayUs / 2
		us := half + f.rng.Int63n(p.DelayUs-half+1)
		f.delayed[site]++
		m.recordDelay()
		f.sleep(time.Duration(us) * time.Microsecond)
	}
	fire := p.Persistent
	if !fire && p.Count > 0 {
		p.Count--
		fire = true
	}
	if !fire && p.Rate > 0 && f.rng.Float64() < p.Rate {
		fire = true
	}
	if !fire {
		return nil
	}
	f.injected[site]++
	m.recordInjected()
	cause := p.Err
	if cause == nil {
		cause = ErrInjected
	}
	switch site {
	case SiteListVMs:
		return fmt.Errorf("%s: %w", site, cause)
	case SiteLastCPU:
		return fmt.Errorf("%s tid %d: %w", site, vcpu, cause)
	case SiteCoreFreq:
		return fmt.Errorf("%s core %d: %w", site, vcpu, cause)
	}
	return fmt.Errorf("%s %s/vcpu%d: %w", site, vm, vcpu, cause)
}

// Node implements Host (never injected: node info is static).
func (f *FaultyHost) Node() NodeInfo { return f.inner.Node() }

// ListVMs implements Host.
func (f *FaultyHost) ListVMs() ([]VMInfo, error) {
	if err := f.fail(SiteListVMs, "", -1); err != nil {
		return nil, err
	}
	return f.inner.ListVMs()
}

// UsageUs implements Host.
func (f *FaultyHost) UsageUs(vm string, vcpu int) (int64, error) {
	if err := f.fail(SiteUsage, vm, vcpu); err != nil {
		return 0, err
	}
	return f.inner.UsageUs(vm, vcpu)
}

// SetMax implements Host.
func (f *FaultyHost) SetMax(vm string, vcpu int, quotaUs, periodUs int64) error {
	if err := f.fail(SiteSetMax, vm, vcpu); err != nil {
		return err
	}
	return f.inner.SetMax(vm, vcpu, quotaUs, periodUs)
}

// BatchSetMax implements BatchQuotaWriter. Each entry is injected
// independently: first at SiteBatchSetMax, then through the regular
// SetMax path, so SiteSetMax plans keep firing for batched writes (a
// batch is semantically N quota writes). Entries forward one by one via
// SetMax rather than the inner host's own batch capability — this keeps
// per-entry injection exact and lets the wrapper add the capability to
// any host, matching the controller's per-entry fault accounting.
func (f *FaultyHost) BatchSetMax(vm string, quotas []VCPUQuota) error {
	var firstErr error
	for i := range quotas {
		q := &quotas[i]
		q.Err = f.fail(SiteBatchSetMax, vm, q.VCPU)
		if q.Err == nil {
			q.Err = f.SetMax(vm, q.VCPU, q.QuotaUs, q.PeriodUs)
		}
		if q.Err != nil && firstErr == nil {
			firstErr = q.Err
		}
	}
	return firstErr
}

// ClearMax implements Host.
func (f *FaultyHost) ClearMax(vm string, vcpu int) error {
	if err := f.fail(SiteClearMax, vm, vcpu); err != nil {
		return err
	}
	return f.inner.ClearMax(vm, vcpu)
}

// ReadMax implements QuotaReader, forwarding to the inner host when it
// supports quota reads.
func (f *FaultyHost) ReadMax(vm string, vcpu int) (int64, int64, error) {
	if err := f.fail(SiteReadMax, vm, vcpu); err != nil {
		return 0, 0, err
	}
	qr, ok := f.inner.(QuotaReader)
	if !ok {
		return 0, 0, fmt.Errorf("platform: host %T cannot read quotas", f.inner)
	}
	return qr.ReadMax(vm, vcpu)
}

// SetBurst implements Host.
func (f *FaultyHost) SetBurst(vm string, vcpu int, burstUs int64) error {
	if err := f.fail(SiteSetBurst, vm, vcpu); err != nil {
		return err
	}
	return f.inner.SetBurst(vm, vcpu, burstUs)
}

// ThreadID implements Host.
func (f *FaultyHost) ThreadID(vm string, vcpu int) (int, error) {
	if err := f.fail(SiteThreadID, vm, vcpu); err != nil {
		return 0, err
	}
	return f.inner.ThreadID(vm, vcpu)
}

// LastCPU implements Host.
func (f *FaultyHost) LastCPU(tid int) (int, error) {
	if err := f.fail(SiteLastCPU, "", tid); err != nil {
		return 0, err
	}
	return f.inner.LastCPU(tid)
}

// CoreFreqMHz implements Host.
func (f *FaultyHost) CoreFreqMHz(core int) (int64, error) {
	if err := f.fail(SiteCoreFreq, "", core); err != nil {
		return 0, err
	}
	return f.inner.CoreFreqMHz(core)
}
