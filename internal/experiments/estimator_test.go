package experiments

import (
	"slices"
	"strings"
	"testing"
)

// TestEstimatorSeriesPinned holds Figs. 3–5 to the values they had when a
// private fake host fed the controller (tid 1, core 0, F_MAX): the host
// behind EstimatorCase.Run may change, the series may not.
func TestEstimatorSeriesPinned(t *testing.T) {
	for _, tc := range []struct {
		ec        EstimatorCase
		cons, cap []float64
	}{
		{Fig3Case(),
			[]float64{100, 105.264, 150, 157.895, 240, 252.632, 400, 421.053, 680, 715.79, 1000, 1000},
			[]float64{105.264, 210.528, 157.895, 315.79, 252.632, 505.264, 421.053, 842.106, 715.79, 1000, 1000, 1000}},
		{Fig4Case(),
			[]float64{900, 900, 900, 700, 500, 350, 250, 180, 130, 100, 100, 100},
			[]float64{947.369, 947.369, 947.369, 736.843, 526.316, 368.422, 263.158, 189.474, 136.843, 105.264, 105.264, 105.264}},
		{Fig5Case(),
			[]float64{600, 600, 605, 600, 598, 600, 602, 600, 600, 600},
			[]float64{631.579, 631.579, 636.843, 631.579, 629.474, 631.579, 633.685, 631.579, 631.579, 631.579}},
	} {
		rec, err := tc.ec.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got := rec.Series("consumption").Values; !slices.Equal(got, tc.cons) {
			t.Errorf("%s consumption = %v, want %v", tc.ec.Name, got, tc.cons)
		}
		if got := rec.Series("capping").Values; !slices.Equal(got, tc.cap) {
			t.Errorf("%s capping = %v, want %v", tc.ec.Name, got, tc.cap)
		}
	}
}

func TestFig3IncreaseBehaviour(t *testing.T) {
	rec, err := Fig3Case().Run()
	if err != nil {
		t.Fatal(err)
	}
	cons := rec.Series("consumption")
	cap := rec.Series("capping")
	if cons == nil || cap == nil {
		t.Fatal("missing series")
	}
	// The capping always admits the rising demand eventually: by the
	// end both sit at the full core.
	last := cap.Values[cap.Len()-1]
	if last < 999 { // kcycles
		t.Fatalf("final cap = %.0f kcycles, want ≈1000 (full core)", last)
	}
	// Somewhere along the ramp the cap at least doubles in one step
	// (the increase factor).
	doubled := false
	for i := 1; i < cap.Len(); i++ {
		if cap.Values[i] >= 1.9*cap.Values[i-1] {
			doubled = true
			break
		}
	}
	if !doubled {
		t.Fatal("increase factor never produced a doubling step")
	}
}

func TestFig4DecreaseBehaviour(t *testing.T) {
	rec, err := Fig4Case().Run()
	if err != nil {
		t.Fatal(err)
	}
	cons := rec.Series("consumption")
	cap := rec.Series("capping")
	// The capping never cuts below what the workload consumed (no
	// starvation during the ramp-down) and ends close to the floor.
	for i := 0; i < cons.Len(); i++ {
		if cap.Values[i] < cons.Values[i]-1 {
			t.Fatalf("iteration %d: cap %.0f below consumption %.0f",
				i, cap.Values[i], cons.Values[i])
		}
	}
	last := cap.Values[cap.Len()-1]
	if last > 150 { // consumption floor is 100 kcycles
		t.Fatalf("final cap = %.0f kcycles, want near the 100 kcycle floor", last)
	}
}

func TestFig5StableBehaviour(t *testing.T) {
	rec, err := Fig5Case().Run()
	if err != nil {
		t.Fatal(err)
	}
	cons := rec.Series("consumption")
	cap := rec.Series("capping")
	// After settling, the cap sits just above the ~600 kcycle
	// consumption: above it, but within ~10 %.
	for i := 3; i < cap.Len(); i++ {
		ratio := cap.Values[i] / cons.Values[i]
		if ratio < 1.0 || ratio > 1.12 {
			t.Fatalf("iteration %d: cap/consumption = %.3f, want (1.00, 1.12]", i, ratio)
		}
	}
}

func TestEstimatorFigureRenders(t *testing.T) {
	out, err := EstimatorFigure(Fig5Case(), 50)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "capping") || !strings.Contains(out, "consumption") {
		t.Fatalf("chart incomplete:\n%s", out)
	}
}
