// Ablation benchmarks for the controller's design choices: the
// increase/decrease factors of the estimator (§III-B2), the auction
// window and credit economy (§III-B4), the history length of the trend,
// and the host's DVFS governor. Each reports the behavioural metric the
// paper argues about (convergence speed, wasted cycles, burst fairness)
// so `go test -bench=Ablation` quantifies the trade-offs.
package vfreq

import (
	"fmt"
	"testing"

	"vfreq/internal/core"
	"vfreq/internal/dvfs"
	"vfreq/internal/experiments"
	"vfreq/internal/host"
	"vfreq/internal/platform"
	"vfreq/internal/vm"
	"vfreq/internal/workload"
)

// newScriptHost is the host the estimator and credit ablations feed exact
// consumption patterns through.
func newScriptHost(cores int, maxMHz int64) *platform.Scripted {
	return platform.NewScripted(platform.NodeInfo{Name: "script", Cores: cores, MaxFreqMHz: maxMHz})
}

// convergencePeriods counts the control periods a saturated vCPU needs to
// grow its cap from idle to ≥95 % of a core under the given config.
func convergencePeriods(b *testing.B, cfg core.Config) int {
	b.Helper()
	periods := 0
	for i := 0; i < b.N; i++ {
		h := newScriptHost(1, 2400)
		h.AddVM("v", 1, 2400)
		ctrl, err := core.New(h, cfg)
		if err != nil {
			b.Fatal(err)
		}
		// Warm-up + 5 idle periods so the cap decays.
		for k := 0; k < 6; k++ {
			if err := ctrl.Step(); err != nil {
				b.Fatal(err)
			}
		}
		// Saturated: each period the vCPU consumes exactly its cap.
		periods = 0
		for k := 0; k < 200; k++ {
			h.Consume("v", 0, ctrl.VM("v").VCPUs[0].CapUs)
			if err := ctrl.Step(); err != nil {
				b.Fatal(err)
			}
			periods++
			if ctrl.VM("v").VCPUs[0].CapUs >= 950_000 {
				break
			}
		}
	}
	return periods
}

// The increase factor trades convergence speed against over-allocation:
// the paper picked 100 % ("the higher the increase factor, the faster the
// convergence... but also the higher the resource wastage").
func BenchmarkAblationIncreaseFactor(b *testing.B) {
	for _, factor := range []float64{0.3, 1.0, 3.0} {
		b.Run(fmt.Sprintf("factor_%.0f%%", factor*100), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.IncreaseFactor = factor
			p := convergencePeriods(b, cfg)
			b.ReportMetric(float64(p), "periods_to_converge")
		})
	}
}

// The decrease factor trades reclamation speed against oscillation after
// short dips: the paper picked 5 %.
func BenchmarkAblationDecreaseFactor(b *testing.B) {
	for _, factor := range []float64{0.05, 0.3, 0.8} {
		b.Run(fmt.Sprintf("factor_%.0f%%", factor*100), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.DecreaseFactor = factor
			var wasted, recoverPeriods float64
			for i := 0; i < b.N; i++ {
				h := newScriptHost(1, 2400)
				h.AddVM("v", 1, 2400)
				ctrl, err := core.New(h, cfg)
				if err != nil {
					b.Fatal(err)
				}
				// Saturate, converge.
				if err := ctrl.Step(); err != nil {
					b.Fatal(err)
				}
				for k := 0; k < 15; k++ {
					h.Consume("v", 0, ctrl.VM("v").VCPUs[0].CapUs)
					if err := ctrl.Step(); err != nil {
						b.Fatal(err)
					}
				}
				// 3-period dip at 10 % usage: how many cycles stay
				// allocated-but-unused?
				wasted = 0
				for k := 0; k < 3; k++ {
					cap := ctrl.VM("v").VCPUs[0].CapUs
					use := int64(100_000)
					if use > cap {
						use = cap
					}
					h.Consume("v", 0, use)
					wasted += float64(cap - use)
					if err := ctrl.Step(); err != nil {
						b.Fatal(err)
					}
				}
				// Demand returns: periods until the cap is back above
				// 90 % of a core (the paper's oscillation argument:
				// aggressive decrease makes this climb long).
				recoverPeriods = 0
				for k := 0; k < 100; k++ {
					if ctrl.VM("v").VCPUs[0].CapUs >= 900_000 {
						break
					}
					h.Consume("v", 0, ctrl.VM("v").VCPUs[0].CapUs)
					if err := ctrl.Step(); err != nil {
						b.Fatal(err)
					}
					recoverPeriods++
				}
			}
			b.ReportMetric(wasted/1000, "wasted_kcycles_in_dip")
			b.ReportMetric(recoverPeriods, "periods_to_recover")
		})
	}
}

// The auction window prevents a rich VM from buying the whole market in
// one round ("a window is used to avoid that a rich VM steals all the
// cycles included in the market"). Three equally wealthy VMs compete for
// a market half the size of their combined demand; the metric is the
// biggest buyer's share of the sold cycles.
func BenchmarkAblationAuctionWindow(b *testing.B) {
	for _, window := range []int64{10_000, 100_000, 250_000} {
		b.Run(fmt.Sprintf("window_%dus", window), func(b *testing.B) {
			var topShare float64
			for i := 0; i < b.N; i++ {
				h := newScriptHost(1, 2400) // capacity 1e6 per period
				for k := 0; k < 3; k++ {
					h.AddVM(fmt.Sprintf("vm%d", k), 1, 600) // C_i = 250000
				}
				cfg := core.DefaultConfig()
				cfg.WindowUs = window
				ctrl, err := core.New(h, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := ctrl.Step(); err != nil { // warm-up
					b.Fatal(err)
				}
				// Craft the contended state: every vCPU has a rising
				// history pressed against its 250000 cap (so the
				// estimate doubles to 500000) and a fat wallet. The
				// market of Eq. 6 is then 1e6 − 3×250000 = 250000,
				// against 3×250000 of demand.
				for k := 0; k < 3; k++ {
					st := ctrl.VM(fmt.Sprintf("vm%d", k))
					st.CreditUs = 1_000_000
					v := st.VCPUs[0]
					v.CapUs = 250_000
					for _, u := range []int64{100_000, 150_000, 200_000} {
						v.Hist.Push(u)
					}
					h.Consume(st.Info.Name, 0, 245_000)
				}
				if err := ctrl.Step(); err != nil {
					b.Fatal(err)
				}
				var bought [3]float64
				var total float64
				for k := 0; k < 3; k++ {
					cap := ctrl.VM(fmt.Sprintf("vm%d", k)).VCPUs[0].CapUs
					if cap > 250_000 {
						bought[k] = float64(cap - 250_000)
						total += bought[k]
					}
				}
				topShare = 0
				for _, v := range bought {
					if total > 0 && v/total > topShare {
						topShare = v / total
					}
				}
			}
			b.ReportMetric(topShare, "top_buyer_market_share")
		})
	}
}

// The credit wallet cap bounds how long an idle VM can burst later; with
// no credits at all, stage 5 still distributes spare cycles but without
// the under-consumption priority.
func BenchmarkAblationCreditCap(b *testing.B) {
	for _, capPeriods := range []int64{1, 60, 0 /* unbounded */} {
		name := fmt.Sprintf("cap_%dperiods", capPeriods)
		if capPeriods == 0 {
			name = "cap_unbounded"
		}
		b.Run(name, func(b *testing.B) {
			var wallet float64
			for i := 0; i < b.N; i++ {
				h := newScriptHost(4, 2400)
				h.AddVM("v", 2, 1200)
				cfg := core.DefaultConfig()
				cfg.CreditCapPeriods = capPeriods
				ctrl, err := core.New(h, cfg)
				if err != nil {
					b.Fatal(err)
				}
				for k := 0; k < 120; k++ { // two minutes idle
					if err := ctrl.Step(); err != nil {
						b.Fatal(err)
					}
				}
				wallet = float64(ctrl.VM("v").CreditUs)
			}
			b.ReportMetric(wallet/1e6, "wallet_Mcycles")
		})
	}
}

// History length: longer windows smooth the Eq. 3 trend but slow the
// reaction to a genuine ramp.
func BenchmarkAblationHistoryLen(b *testing.B) {
	for _, n := range []int{2, 5, 20} {
		b.Run(fmt.Sprintf("n_%d", n), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.HistoryLen = n
			p := convergencePeriods(b, cfg)
			b.ReportMetric(float64(p), "periods_to_converge")
		})
	}
}

// DVFS governor: the paper notes CPUs are more energy-efficient at high
// frequency ("wasting compute power may actually lead to consume more
// energy"); compare node energy for the same Fig. 7 workload under
// different governors.
func BenchmarkAblationGovernor(b *testing.B) {
	for _, gov := range []string{dvfs.GovernorSchedutil, dvfs.GovernorPerformance, dvfs.GovernorOndemand} {
		b.Run(gov, func(b *testing.B) {
			e := experiments.Scale(experiments.Fig7(), 0.02)
			e.Node.Governor = gov
			var res *experiments.FreqResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = e.Run()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.EnergyJoules/1000, "energy_kJ")
			dur := float64(e.DurationUs) / 1e6
			b.ReportMetric(res.Rec.Series("large").MedianRange(dur*2/3, dur), "large_MHz")
		})
	}
}

// Cache contention (the paper's §V future work, quantified): with an LLC
// penalty active, the controller still delivers CPU-time guarantees but
// the attained virtual frequency erodes with machine load — the reason
// quotas alone cannot guarantee throughput.
func BenchmarkAblationCachePenalty(b *testing.B) {
	for _, penalty := range []float64{0, 0.15, 0.3} {
		b.Run(fmt.Sprintf("penalty_%.0f%%", penalty*100), func(b *testing.B) {
			e := experiments.Scale(experiments.Fig7(), 0.02)
			e.Node.CachePenalty = penalty
			var res *experiments.FreqResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = e.Run()
				if err != nil {
					b.Fatal(err)
				}
			}
			dur := float64(e.DurationUs) / 1e6
			b.ReportMetric(res.Rec.Series("large").MedianRange(dur*2/3, dur), "large_MHz")
			b.ReportMetric(res.Rec.Series("small").MedianRange(dur*2/3, dur), "small_MHz")
		})
	}
}

// Burst fraction (extension over the paper): a workload with 100 ms
// demand spikes per 200 ms can never consume more than half its cap
// without burst, so the paper's stable-case recalibration (est = u/0.95)
// shrinks its cap geometrically until it collapses to the minimum quota —
// the estimator assumes sub-period-uniform demand. With a full burst
// budget (cpu.max.burst = quota), off-spike windows bank enough bandwidth
// that the spikes run unthrottled, u tracks the cap, and the estimator
// stays converged: attained CPU rises ~30×. Partial burst (50 %) still
// collapses. Steady CPU-bound workloads (the paper's benchmarks) are
// unaffected by the knob.
func BenchmarkAblationBurstFraction(b *testing.B) {
	for _, frac := range []float64{0, 0.5, 1.0} {
		b.Run(fmt.Sprintf("burst_%.0f%%", frac*100), func(b *testing.B) {
			var attainedUs int64
			for i := 0; i < b.N; i++ {
				machine, err := host.New(host.Spec{
					Name: "burst-bench", Cores: 2,
					MinMHz: 1200, MaxMHz: 2400, MemoryGB: 16,
					Governor: dvfs.GovernorPerformance,
					Power:    host.Chetemi().Power,
				})
				if err != nil {
					b.Fatal(err)
				}
				mgr, err := vm.NewManager(machine)
				if err != nil {
					b.Fatal(err)
				}
				spiky := &workload.Bursty{PeriodUs: 200_000, Duty: 0.5, High: 1, Low: 0}
				inst, err := mgr.Provision("spiky",
					vm.Template{Name: "spiky", VCPUs: 1, FreqMHz: 1200, MemoryGB: 1},
					[]workload.Source{spiky})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := mgr.Provision("busy",
					vm.Template{Name: "busy", VCPUs: 2, FreqMHz: 1800, MemoryGB: 1},
					[]workload.Source{workload.Busy(), workload.Busy()}); err != nil {
					b.Fatal(err)
				}
				cfg := core.DefaultConfig()
				cfg.BurstFraction = frac
				ctrl, err := core.New(platform.NewSim(mgr), cfg)
				if err != nil {
					b.Fatal(err)
				}
				for step := 0; step < 30; step++ {
					machine.Advance(cfg.PeriodUs)
					if err := ctrl.Step(); err != nil {
						b.Fatal(err)
					}
				}
				before := inst.VCPUThread(0).UsageUs
				for step := 0; step < 30; step++ {
					machine.Advance(cfg.PeriodUs)
					if err := ctrl.Step(); err != nil {
						b.Fatal(err)
					}
				}
				attainedUs = inst.VCPUThread(0).UsageUs - before
			}
			b.ReportMetric(float64(attainedUs)/1000, "spiky_attained_ms")
		})
	}
}

// Control period: shorter periods react faster but cost proportionally
// more controller CPU (the paper's 5 ms every 1 s).
func BenchmarkAblationControlPeriod(b *testing.B) {
	for _, periodMs := range []int64{250, 1000, 4000} {
		b.Run(fmt.Sprintf("period_%dms", periodMs), func(b *testing.B) {
			e := experiments.Scale(experiments.Fig7(), 0.05)
			// Override the (already scaled) control period: periodMs
			// is expressed in full-scale milliseconds.
			cfg := e.Config
			cfg.PeriodUs = periodMs * 1000 * 5 / 100
			if cfg.PeriodUs < cfg.CgroupPeriodUs {
				cfg.CgroupPeriodUs = cfg.PeriodUs
			}
			e.Config = cfg
			var res *experiments.FreqResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = e.Run()
				if err != nil {
					b.Fatal(err)
				}
			}
			dur := float64(e.DurationUs) / 1e6
			b.ReportMetric(res.Rec.Series("small").MedianRange(dur*2/3, dur), "small_MHz")
			b.ReportMetric(float64(res.AvgStep.Microseconds()), "ctrl_step_µs")
		})
	}
}
