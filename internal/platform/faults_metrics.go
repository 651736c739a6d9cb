package platform

import "vfreq/internal/metrics"

// siteMetrics is the pre-interned instrument set of one fault site.
// The record methods are nil-receiver safe, matching the nil-map read
// fail performs on an unarmed host.
type siteMetrics struct {
	calls    *metrics.Counter
	injected *metrics.Counter
	delayed  *metrics.Counter
}

func (m *siteMetrics) recordCall() {
	if m != nil {
		m.calls.Inc()
	}
}

func (m *siteMetrics) recordInjected() {
	if m != nil {
		m.injected.Inc()
	}
}

func (m *siteMetrics) recordDelay() {
	if m != nil {
		m.delayed.Inc()
	}
}

// ArmMetrics registers one calls/injected/delayed counter triple per
// fault site in reg, labelled by site, and starts recording every
// decision into them. All series are interned here, up front; fail
// then pays one map read and an atomic add per event. A nil reg
// disarms.
func (f *FaultyHost) ArmMetrics(reg *metrics.Registry) {
	if reg == nil {
		f.met = nil
		return
	}
	f.met = make(map[FaultSite]*siteMetrics, len(Sites))
	for _, site := range Sites {
		l := metrics.Label{Key: "site", Value: string(site)}
		f.met[site] = &siteMetrics{
			calls:    reg.Counter("vfreq_fault_site_calls_total", "Host calls that reached an injectable site.", l),
			injected: reg.Counter("vfreq_fault_injected_total", "Errors injected at a site.", l),
			delayed:  reg.Counter("vfreq_fault_delays_total", "Calls artificially delayed at a site.", l),
		}
	}
}
