package experiments

import (
	"fmt"

	"vfreq/internal/core"
	"vfreq/internal/platform"
	"vfreq/internal/trace"
)

// EstimatorCase reproduces the paper's Figs. 3–5: one vCPU fed a scripted
// consumption pattern, recording consumption u and capping c over the
// iterations so the increase / decrease / stable behaviours are visible.
type EstimatorCase struct {
	Name    string
	Pattern []int64 // consumption per period, µs
}

// Fig3Case: rising consumption crosses the increase trigger; the capping
// doubles ahead of demand.
func Fig3Case() EstimatorCase {
	return EstimatorCase{
		Name: "fig3-increase",
		Pattern: []int64{
			100_000, 120_000, 150_000, 190_000, 240_000,
			310_000, 400_000, 520_000, 680_000, 900_000, 1_000_000, 1_000_000,
		},
	}
}

// Fig4Case: falling consumption crosses the decrease trigger; the capping
// follows gently (5 % steps).
func Fig4Case() EstimatorCase {
	return EstimatorCase{
		Name: "fig4-decrease",
		Pattern: []int64{
			900_000, 900_000, 900_000, 700_000, 500_000,
			350_000, 250_000, 180_000, 130_000, 100_000, 100_000, 100_000,
		},
	}
}

// Fig5Case: stable consumption; the capping recalibrates just above it.
func Fig5Case() EstimatorCase {
	return EstimatorCase{
		Name: "fig5-stable",
		Pattern: []int64{
			600_000, 600_000, 605_000, 600_000, 598_000,
			600_000, 602_000, 600_000, 600_000, 600_000,
		},
	}
}

// Run executes the case and returns a recorder with "consumption" and
// "capping" series (µs per period over iterations).
func (ec EstimatorCase) Run() (*trace.Recorder, error) {
	h := platform.NewScripted(platform.NodeInfo{Name: "est", Cores: 1, MaxFreqMHz: 2400})
	h.AddVM("v", 1, h.Node().MaxFreqMHz)
	ctrl, err := core.New(h, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	if err := ctrl.Step(); err != nil { // warm-up
		return nil, err
	}
	rec := trace.NewRecorder()
	for i, u := range ec.Pattern {
		// The vCPU cannot consume beyond its applied cap.
		cap := ctrl.VM("v").VCPUs[0].CapUs
		if u > cap {
			u = cap
		}
		h.Consume("v", 0, u)
		if err := ctrl.Step(); err != nil {
			return nil, err
		}
		rec.Record("consumption", float64(i), float64(u)/1000)
		rec.Record("capping", float64(i), float64(ctrl.VM("v").VCPUs[0].CapUs)/1000)
	}
	return rec, nil
}

// EstimatorFigure renders a case as an ASCII chart.
func EstimatorFigure(ec EstimatorCase, width int) (string, error) {
	rec, err := ec.Run()
	if err != nil {
		return "", err
	}
	title := fmt.Sprintf("%s — consumption vs capping (kcycles per period)", ec.Name)
	return rec.Chart(title, []string{"consumption", "capping"}, width, 12), nil
}
