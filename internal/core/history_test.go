package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHistoryPushEvict(t *testing.T) {
	h := NewHistory(3)
	for _, v := range []int64{1, 2, 3} {
		h.Push(v)
	}
	if h.Len() != 3 || h.At(0) != 1 || h.At(2) != 3 {
		t.Fatalf("history contents wrong: %d %d %d", h.At(0), h.At(1), h.At(2))
	}
	h.Push(4) // evicts 1
	if h.Len() != 3 || h.At(0) != 2 || h.At(2) != 4 {
		t.Fatalf("after evict: %d %d %d", h.At(0), h.At(1), h.At(2))
	}
}

func TestHistoryEmpty(t *testing.T) {
	h := NewHistory(4)
	if h.Len() != 0 || h.Mean() != 0 || h.Trend() != 0 {
		t.Fatal("empty history not neutral")
	}
}

func TestHistoryMinCapacity(t *testing.T) {
	h := NewHistory(0) // clamped to 2
	h.Push(1)
	h.Push(2)
	h.Push(3)
	if h.Len() != 2 || h.At(0) != 2 {
		t.Fatalf("min capacity not enforced: len=%d", h.Len())
	}
}

func TestHistoryAtPanics(t *testing.T) {
	h := NewHistory(3)
	h.Push(1)
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	h.At(1)
}

func TestHistoryMean(t *testing.T) {
	h := NewHistory(4)
	for _, v := range []int64{10, 20, 30} {
		h.Push(v)
	}
	if h.Mean() != 20 {
		t.Fatalf("Mean = %v", h.Mean())
	}
}

func TestTrendLinear(t *testing.T) {
	h := NewHistory(5)
	// y = 100 + 7x
	for x := int64(1); x <= 5; x++ {
		h.Push(100 + 7*x)
	}
	if got := h.Trend(); math.Abs(got-7) > 1e-9 {
		t.Fatalf("Trend = %v, want 7", got)
	}
}

func TestTrendConstantIsZero(t *testing.T) {
	h := NewHistory(5)
	for i := 0; i < 5; i++ {
		h.Push(42)
	}
	if got := h.Trend(); got != 0 {
		t.Fatalf("Trend = %v, want 0", got)
	}
}

func TestTrendDecreasing(t *testing.T) {
	h := NewHistory(4)
	for _, v := range []int64{1000, 800, 600, 400} {
		h.Push(v)
	}
	if got := h.Trend(); math.Abs(got+200) > 1e-9 {
		t.Fatalf("Trend = %v, want -200", got)
	}
}

func TestTrendSingleSample(t *testing.T) {
	h := NewHistory(5)
	h.Push(9)
	if h.Trend() != 0 {
		t.Fatal("single-sample trend not zero")
	}
}

// Property: the trend of an exact affine series equals its slope, for any
// intercept/slope and window length, including after evictions.
func TestQuickTrendAffine(t *testing.T) {
	f := func(a int16, b int8, n8, extra8 uint8) bool {
		n := int(n8%6) + 2
		extra := int(extra8 % 10)
		h := NewHistory(n)
		for x := int64(1); x <= int64(n+extra); x++ {
			h.Push(int64(a) + int64(b)*x)
		}
		return math.Abs(h.Trend()-float64(b)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
