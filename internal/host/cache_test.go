package host

import (
	"testing"

	"vfreq/internal/dvfs"
)

func cacheSpec(penalty float64) Spec {
	s := Chetemi()
	s.Name = "cachey"
	s.Cores = 4
	s.Governor = dvfs.GovernorPerformance
	s.JitterMHz = 0
	s.TurboMHz = 0 // no single-core turbo: isolate the cache effect
	s.CachePenalty = penalty
	return s
}

func TestCachePenaltyValidation(t *testing.T) {
	s := cacheSpec(1.0)
	if err := s.Validate(); err == nil {
		t.Fatal("penalty 1.0 accepted")
	}
	s.CachePenalty = -0.1
	if err := s.Validate(); err == nil {
		t.Fatal("negative penalty accepted")
	}
	s.CachePenalty = 0.3
	if err := s.Validate(); err != nil {
		t.Fatalf("valid penalty rejected: %v", err)
	}
}

// A lone thread on an otherwise idle machine suffers almost no
// contention; a fully loaded machine loses ~penalty of throughput.
func TestCachePenaltyScalesWithUtilisation(t *testing.T) {
	attained := func(busyThreads int) int64 {
		m, err := New(cacheSpec(0.3))
		if err != nil {
			t.Fatal(err)
		}
		th, err := m.StartThread(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < busyThreads; i++ {
			if _, err := m.StartThread(nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		m.Advance(2_000_000)
		return th.Cycles
	}
	alone := attained(1)
	crowded := attained(4) // all 4 cores busy → u = 1
	// Alone: u = 0.25 → slowdown 1 − 0.3×0.0625 ≈ 0.98.
	// Crowded: u = 1 → slowdown 0.7.
	ratio := float64(crowded) / float64(alone)
	if ratio < 0.68 || ratio > 0.76 {
		t.Fatalf("crowded/alone throughput = %.3f, want ≈0.71", ratio)
	}
	// CPU time itself is NOT affected — only cycle throughput.
}

func TestZeroPenaltyUnchanged(t *testing.T) {
	m, err := New(cacheSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	th, _ := m.StartThread(nil, nil)
	for i := 0; i < 3; i++ {
		if _, err := m.StartThread(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	m.Advance(1_000_000)
	if th.Cycles != 1_000_000*2400 {
		t.Fatalf("work = %d, want exactly %d (no contention model)", th.Cycles, int64(1_000_000)*2400)
	}
}

// The paper's future-work motivation, quantified: under cache contention
// the controller still delivers the CPU-time guarantee, but the attained
// cycle rate (virtual frequency) falls short — quotas alone cannot
// guarantee throughput.
func TestCacheContentionErodesVirtualFrequency(t *testing.T) {
	m, err := New(cacheSpec(0.25))
	if err != nil {
		t.Fatal(err)
	}
	th, _ := m.StartThread(nil, nil)
	for i := 0; i < 3; i++ {
		if _, err := m.StartThread(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	m.Advance(4_000_000)
	if th.UsageUs != 4_000_000 { // full CPU time delivered
		t.Fatalf("usage = %d, want full 4000000", th.UsageUs)
	}
	freq := float64(th.Cycles) / 4_000_000
	if freq > 2000 { // but cycle rate well below the 2400 nominal
		t.Fatalf("virtual frequency %.0f MHz not eroded by contention", freq)
	}
}
