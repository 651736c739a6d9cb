// Package trace records time series during experiments and renders them
// as CSV tables or ASCII charts, regenerating the paper's figures in a
// terminal-friendly form.
package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Series is a named sequence of (time, value) points.
type Series struct {
	Name   string
	Times  []float64 // seconds
	Values []float64

	sortScratch []float64 // reused by MedianRange
}

// Add appends a point.
func (s *Series) Add(t, v float64) {
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, v)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Values) }

// Mean returns the average value (0 when empty).
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// MedianRange returns the median of values with Times in [from, to) — a
// robust plateau estimator, insensitive to the periodic synchronisation
// notches of the benchmark workloads.
func (s *Series) MedianRange(from, to float64) float64 {
	vals := s.rangeSorted(from, to)
	if len(vals) == 0 {
		return 0
	}
	mid := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[mid]
	}
	return (vals[mid-1] + vals[mid]) / 2
}

// rangeSorted copies the values with Times in [from, to) into the
// series' reused scratch slice and sorts them ascending, so MedianRange
// does not allocate a fresh copy per call.
func (s *Series) rangeSorted(from, to float64) []float64 {
	vals := s.sortScratch[:0]
	for i, t := range s.Times {
		if t >= from && t < to {
			vals = append(vals, s.Values[i])
		}
	}
	sort.Float64s(vals)
	s.sortScratch = vals
	return vals
}

// Sum returns the sum of all values — for counter-like series (faults,
// degraded vCPUs per period) this is the series' cumulative total.
func (s *Series) Sum() float64 {
	var sum float64
	for _, v := range s.Values {
		sum += v
	}
	return sum
}

// Max returns the maximum value (0 when empty).
func (s *Series) Max() float64 {
	max := math.Inf(-1)
	for _, v := range s.Values {
		if v > max {
			max = v
		}
	}
	if math.IsInf(max, -1) {
		return 0
	}
	return max
}

// Recorder collects named series with a shared clock.
type Recorder struct {
	series map[string]*Series
	order  []string

	nameScratch []string // reused by RecordAll's per-call sort
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{series: map[string]*Series{}}
}

// Record appends a point to the named series, creating it on first use.
func (r *Recorder) Record(name string, t, v float64) {
	s, ok := r.series[name]
	if !ok {
		s = &Series{Name: name}
		r.series[name] = s
		r.order = append(r.order, name)
	}
	s.Add(t, v)
}

// RecordAll appends one point per named value at a shared timestamp, in
// sorted name order so first-use series creation is deterministic. It is
// the natural sink for per-step status structs (e.g. a controller's
// degradation report fanned out as time series).
func (r *Recorder) RecordAll(t float64, values map[string]float64) {
	names := r.nameScratch[:0]
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r.Record(n, t, values[n])
	}
	r.nameScratch = names[:0]
}

// Series returns the named series, or nil.
func (r *Recorder) Series(name string) *Series { return r.series[name] }

// CSV renders all series as a CSV table aligned on the union of times.
func (r *Recorder) CSV() string {
	var b strings.Builder
	b.WriteString("time")
	for _, n := range r.order {
		b.WriteString(",")
		b.WriteString(n)
	}
	b.WriteString("\n")
	// Union of timestamps.
	set := map[float64]bool{}
	for _, n := range r.order {
		for _, t := range r.series[n].Times {
			set[t] = true
		}
	}
	times := make([]float64, 0, len(set))
	for t := range set {
		times = append(times, t)
	}
	sort.Float64s(times)
	// Per-series cursor walk.
	cursors := make(map[string]int, len(r.order))
	for _, t := range times {
		fmt.Fprintf(&b, "%g", t)
		for _, n := range r.order {
			s := r.series[n]
			i := cursors[n]
			if i < len(s.Times) && s.Times[i] == t {
				fmt.Fprintf(&b, ",%g", s.Values[i])
				cursors[n] = i + 1
			} else {
				b.WriteString(",")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Chart renders the named series as an ASCII line chart of the given
// width and height, with a legend. Series are drawn with distinct marks.
func (r *Recorder) Chart(title string, names []string, width, height int) string {
	if width < 20 {
		width = 20
	}
	if height < 5 {
		height = 5
	}
	marks := []byte{'*', '+', 'o', 'x', '#', '@', '%', '&'}
	var sel []*Series
	for _, n := range names {
		if s := r.series[n]; s != nil && s.Len() > 0 {
			sel = append(sel, s)
		}
	}
	if len(sel) == 0 {
		return title + ": (no data)\n"
	}
	tMin, tMax := math.Inf(1), math.Inf(-1)
	vMin, vMax := 0.0, math.Inf(-1) // y axis anchored at 0
	for _, s := range sel {
		for i, t := range s.Times {
			if t < tMin {
				tMin = t
			}
			if t > tMax {
				tMax = t
			}
			if s.Values[i] > vMax {
				vMax = s.Values[i]
			}
		}
	}
	if vMax <= vMin {
		vMax = vMin + 1
	}
	if tMax <= tMin {
		tMax = tMin + 1
	}
	grid := make([][]byte, height)
	for y := range grid {
		grid[y] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range sel {
		mark := marks[si%len(marks)]
		for i, t := range s.Times {
			x := int(math.Round((t - tMin) / (tMax - tMin) * float64(width-1)))
			y := int(math.Round((s.Values[i] - vMin) / (vMax - vMin) * float64(height-1)))
			row := height - 1 - y
			if x >= 0 && x < width && row >= 0 && row < height {
				grid[row][x] = mark
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for y, row := range grid {
		val := vMax - (vMax-vMin)*float64(y)/float64(height-1)
		fmt.Fprintf(&b, "%8.0f |%s|\n", val, string(row))
	}
	fmt.Fprintf(&b, "%8s +%s+\n", "", strings.Repeat("-", width))
	fmt.Fprintf(&b, "%8s  %-*g%*g\n", "", width/2, tMin, width-width/2, tMax)
	for si, s := range sel {
		fmt.Fprintf(&b, "  %c %s\n", marks[si%len(marks)], s.Name)
	}
	return b.String()
}
