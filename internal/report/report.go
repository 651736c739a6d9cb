// Package report renders a reproduction report: it runs the paper's
// experiments and emits a markdown document with the measured values next
// to the paper's claims, machine-checkable evidence that the shapes hold.
package report

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"vfreq/internal/experiments"
	"vfreq/internal/placement"
)

// Options configures a report run.
type Options struct {
	// Scale is the time scale of the frequency experiments (see
	// experiments.Scale). 0 defaults to 0.1.
	Scale float64
	// SkipEfficiency omits the long Fig. 10/11/14 runs.
	SkipEfficiency bool
}

// Check is one verified claim.
type Check struct {
	Artefact string
	Claim    string
	Measured string
	Pass     bool
}

// Report is the full result set.
type Report struct {
	Checks  []Check
	Elapsed time.Duration
}

// Passed counts successful checks.
func (r *Report) Passed() int {
	n := 0
	for _, c := range r.Checks {
		if c.Pass {
			n++
		}
	}
	return n
}

// Markdown renders the report. It leaves Elapsed out, so the same
// checks render to the same bytes on every run.
func (r *Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Reproduction report\n\n%d/%d checks passed.\n\n", r.Passed(), len(r.Checks))
	b.WriteString("| Artefact | Paper claim | Measured | Pass |\n|---|---|---|---|\n")
	for _, c := range r.Checks {
		mark := "✔"
		if !c.Pass {
			mark = "✘"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", c.Artefact, c.Claim, c.Measured, mark)
	}
	return b.String()
}

// Run executes the checks.
func Run(opts Options) (*Report, error) {
	scale := opts.Scale
	if scale <= 0 {
		scale = 0.1
	}
	start := time.Now()
	rep := &Report{}
	add := func(artefact, claim, measured string, pass bool) {
		rep.Checks = append(rep.Checks, Check{artefact, claim, measured, pass})
	}

	// CFS probes.
	if res, err := experiments.CFSExperimentA(5_000_000); err != nil {
		return nil, err
	} else {
		add("exp a)", "all vCPUs at the same speed",
			fmt.Sprintf("max/min spread %.3f", res.Spread), res.Spread < 1.05)
	}
	if res, err := experiments.CFSExperimentB(5_000_000); err != nil {
		return nil, err
	} else {
		add("exp b)", "1-vCPU VMs get 4/5 of resources",
			fmt.Sprintf("share %.2f", res.OneVCPUShare),
			res.OneVCPUShare > 0.78 && res.OneVCPUShare < 0.82)
	}

	// Frequency experiments.
	type freqCheck struct {
		id     string
		exp    experiments.FreqExperiment
		series map[string][2]float64 // name → [lo, hi] steady-state bounds
		claim  string
	}
	dur := func(e experiments.FreqExperiment) float64 {
		return float64(experiments.Scale(e, scale).DurationUs) / 1e6
	}
	checks := []freqCheck{
		{"fig6", experiments.Fig6(),
			map[string][2]float64{"small": {1400, 1800}, "large": {700, 950}},
			"CFS: small ≈2× large (per-VM shares)"},
		{"fig7", experiments.Fig7(),
			map[string][2]float64{"small": {450, 750}, "large": {1700, 2050}},
			"controlled: small ≈500, large ≈1800 MHz"},
		{"fig8", experiments.Fig8(),
			map[string][2]float64{"small": {1400, 1800}, "large": {700, 950}},
			"chiclet exec A, same shape"},
		{"fig9", experiments.Fig9(),
			map[string][2]float64{"small": {450, 750}, "large": {1700, 2050}},
			"chiclet controlled: 500/1800 MHz"},
		{"fig12", experiments.Fig12(),
			map[string][2]float64{"small": {1300, 2000}},
			"2nd eval exec A: small fastest"},
	}
	slaByID := map[string]map[string]float64{}
	for _, fc := range checks {
		res, err := experiments.Scale(fc.exp, scale).Run()
		if err != nil {
			return nil, fmt.Errorf("report: %s: %w", fc.id, err)
		}
		slaByID[fc.id] = res.SLAViolations
		d := dur(fc.exp)
		var vals []string
		pass := true
		names := make([]string, 0, len(fc.series))
		for name := range fc.series {
			names = append(names, name)
		}
		sort.Strings(names) // the map's order changes from run to run
		for _, name := range names {
			bounds := fc.series[name]
			v := res.Rec.Series(name).MedianRange(d*2/3, d)
			vals = append(vals, fmt.Sprintf("%s=%.0f MHz", name, v))
			if v < bounds[0] || v > bounds[1] {
				pass = false
			}
		}
		add(fc.id, fc.claim, strings.Join(vals, ", "), pass)
	}
	// Predictability: the controller turns near-permanent guarantee
	// violations of the large class into transients.
	if a, ok := slaByID["fig6"]["large"]; ok {
		if b, ok := slaByID["fig7"]["large"]; ok {
			add("fig7 vs fig6", "controller makes large-class performance predictable",
				fmt.Sprintf("SLA violations A=%.0f%% → B=%.0f%%", 100*a, 100*b),
				a >= 0.8 && b <= 0.35)
		}
	}

	// Fig. 13: three plateaus while all classes run.
	{
		e := experiments.Scale(experiments.Fig13(), scale)
		res, err := e.Run()
		if err != nil {
			return nil, err
		}
		d := float64(e.DurationUs) / 1e6
		s := res.Rec.Series("small").MedianRange(d*0.45, d*0.62)
		m := res.Rec.Series("medium").MedianRange(d*0.45, d*0.62)
		l := res.Rec.Series("large").MedianRange(d*0.45, d*0.62)
		pass := s >= 450 && s <= 800 && m >= 1100 && m <= 1450 && l >= 1650 && l <= 2050
		add("fig13", "plateaus 500/1200/1800 MHz",
			fmt.Sprintf("%.0f/%.0f/%.0f MHz", s, m, l), pass)
	}

	// Efficiency experiments.
	if !opts.SkipEfficiency {
		a, bb := experiments.Fig10()
		resA, err := experiments.Scale(a, scale).Run()
		if err != nil {
			return nil, err
		}
		resB, err := experiments.Scale(bb, scale).Run()
		if err != nil {
			return nil, err
		}
		largeB := resB.MeanRateByClass("large")
		pass := len(largeB) >= 5
		min, max := 1e18, 0.0
		for _, v := range largeB {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		if pass && (max-min)/max > 0.15 {
			pass = false
		}
		add("fig10", "controlled large rates stable across runs",
			fmt.Sprintf("spread %.1f%% over %d runs", 100*(max-min)/max, len(largeB)), pass)
		smallA := resA.MeanRateByClass("small")
		smallB := resB.MeanRateByClass("small")
		if len(smallA) > 1 && len(smallB) > 1 {
			ratio := smallB[1] / smallA[1]
			add("fig10", "first uncontended runs equal A vs B",
				fmt.Sprintf("B/A = %.2f", ratio), ratio > 0.85 && ratio < 1.15)
		}
	}

	// Placement.
	rows, err := experiments.RunPlacementComparison()
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		switch {
		case row.Policy.Mode == placement.CoreCount && row.Policy.Factor == 1 &&
			row.Algorithm == placement.BestFit:
			add("§IV-C", "classic constraint needs all 22 nodes",
				fmt.Sprintf("%d nodes", row.UsedNodes), row.UsedNodes == 22)
		case row.Policy.Mode == placement.CoreCount && row.Policy.Factor > 1:
			add("§IV-C", "×1.8 consolidation: 15 nodes, 28 large/chiclet, 36 small/chetemi",
				fmt.Sprintf("%d nodes, %d large/chiclet, %d small/chetemi",
					row.UsedNodes, row.MaxLargePerChiclet, row.MaxSmallPerChetemi),
				row.UsedNodes == 15 && row.MaxLargePerChiclet == 28 && row.MaxSmallPerChetemi == 36)
		case row.Policy.Mode == placement.VirtualFrequency && !row.Policy.CoreSplitting &&
			row.Algorithm == placement.BestFit:
			add("§IV-C", "Eq. 7 packs well below 22 nodes with ≤21 large/chiclet",
				fmt.Sprintf("%d nodes, %d large/chiclet", row.UsedNodes, row.MaxLargePerChiclet),
				row.UsedNodes < 18 && row.MaxLargePerChiclet <= 21)
		}
	}

	rep.Elapsed = time.Since(start)
	return rep, nil
}
