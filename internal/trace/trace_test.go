package trace

import (
	"strings"
	"testing"
)

func TestSeriesStats(t *testing.T) {
	s := &Series{Name: "x"}
	for i, v := range []float64{2, 4, 6} {
		s.Add(float64(i), v)
	}
	if s.Len() != 3 || s.Mean() != 4 {
		t.Fatalf("len=%d mean=%v", s.Len(), s.Mean())
	}
	if s.Max() != 6 {
		t.Fatalf("max=%v", s.Max())
	}
}

func TestSeriesEmpty(t *testing.T) {
	s := &Series{}
	if s.Mean() != 0 || s.Max() != 0 {
		t.Fatal("empty series stats not zero")
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder()
	r.Record("a", 0, 1)
	r.Record("b", 0, 2)
	r.Record("a", 1, 3)
	if r.Series("a").Len() != 2 || r.Series("b").Len() != 1 {
		t.Fatal("series lengths wrong")
	}
	if r.Series("ghost") != nil {
		t.Fatal("ghost series exists")
	}
}

func TestCSV(t *testing.T) {
	r := NewRecorder()
	r.Record("a", 0, 1)
	r.Record("a", 1, 2)
	r.Record("b", 1, 5)
	got := r.CSV()
	want := "time,a,b\n0,1,\n1,2,5\n"
	if got != want {
		t.Fatalf("CSV:\n%s\nwant:\n%s", got, want)
	}
}

func TestChartRenders(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < 50; i++ {
		r.Record("small", float64(i), 500)
		r.Record("large", float64(i), 1800)
	}
	out := r.Chart("Fig", []string{"small", "large"}, 40, 8)
	if !strings.Contains(out, "Fig") || !strings.Contains(out, "small") || !strings.Contains(out, "large") {
		t.Fatalf("chart missing labels:\n%s", out)
	}
	// Both marks present.
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Fatalf("chart missing series marks:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 10 {
		t.Fatalf("chart too short: %d lines", len(lines))
	}
}

func TestChartEmptyAndDegenerate(t *testing.T) {
	r := NewRecorder()
	if out := r.Chart("Empty", []string{"none"}, 40, 8); !strings.Contains(out, "no data") {
		t.Fatalf("empty chart = %q", out)
	}
	// A single constant point must not divide by zero.
	r.Record("p", 5, 0)
	out := r.Chart("One", []string{"p"}, 10, 3)
	if !strings.Contains(out, "*") {
		t.Fatalf("single-point chart:\n%s", out)
	}
}

func TestChartClampsTinyDimensions(t *testing.T) {
	r := NewRecorder()
	r.Record("a", 0, 1)
	out := r.Chart("T", []string{"a"}, 1, 1)
	if len(strings.Split(out, "\n")) < 5 {
		t.Fatal("dimensions not clamped")
	}
}

func TestMedianRange(t *testing.T) {
	s := &Series{}
	for i, v := range []float64{500, 2400, 500, 510, 490, 2400, 505} {
		s.Add(float64(i), v)
	}
	// The median shrugs off the two 2400 spikes.
	if got := s.MedianRange(0, 7); got != 505 {
		t.Fatalf("median = %v, want 505", got)
	}
	if got := s.MedianRange(0, 2); got != 1450 {
		t.Fatalf("even-count median = %v, want 1450", got)
	}
	if got := s.MedianRange(100, 200); got != 0 {
		t.Fatalf("empty median = %v", got)
	}
}

// TestQuantileScratchReuse pins the reused-sort-scratch behaviour of
// MedianRange: interleaved calls over different windows must not see
// each other's scratch contents, and repeated calls must not allocate a
// fresh copy each time.
func TestQuantileScratchReuse(t *testing.T) {
	s := &Series{}
	for i := 0; i < 100; i++ {
		s.Add(float64(i), float64(99-i))
	}
	m1 := s.MedianRange(0, 100)
	h1 := s.MedianRange(0, 50)
	m2 := s.MedianRange(0, 100)
	if m1 != m2 {
		t.Fatalf("MedianRange changed across interleaved calls: %v then %v", m1, m2)
	}
	if h2 := s.MedianRange(0, 50); h1 != h2 {
		t.Fatalf("MedianRange over the half window changed across interleaved calls: %v then %v", h1, h2)
	}
	if got := s.MedianRange(200, 300); got != 0 {
		t.Fatalf("empty window median = %v, want 0", got)
	}
	allocs := testing.AllocsPerRun(20, func() { s.MedianRange(0, 100) })
	if allocs > 0 {
		t.Fatalf("warm MedianRange allocates %.1f/op, want 0", allocs)
	}
}

// TestRecordAllScratchReuse verifies RecordAll keeps recording the same
// values in sorted-name order while reusing its name scratch.
func TestRecordAllScratchReuse(t *testing.T) {
	r := NewRecorder()
	vals := map[string]float64{"b": 2, "a": 1, "c": 3}
	for step := 0; step < 5; step++ {
		r.RecordAll(float64(step), vals)
	}
	want := []string{"a", "b", "c"}
	for i, n := range want {
		if r.order[i] != n {
			t.Fatalf("creation order = %v, want %v", r.order, want)
		}
		if got := r.Series(n).Len(); got != 5 {
			t.Fatalf("series %s has %d points, want 5", n, got)
		}
	}
}
