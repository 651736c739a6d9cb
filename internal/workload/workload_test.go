package workload

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConstant(t *testing.T) {
	c := &Constant{Level: 0.4}
	if d := c.Demand(0, 10_000); d != 0.4 {
		t.Fatalf("demand = %v", d)
	}
	if u := c.Until(123); u != Forever {
		t.Fatalf("horizon = %d, want Forever", u)
	}
	if Idle().Demand(0, 1) != 0 || Busy().Demand(0, 1) != 1 {
		t.Fatal("Idle/Busy levels wrong")
	}
}

func TestBursty(t *testing.T) {
	b := &Bursty{PeriodUs: 100, Duty: 0.3, High: 1, Low: 0.1}
	if d := b.Demand(10, 1); d != 1 {
		t.Fatalf("in burst: %v", d)
	}
	if d := b.Demand(50, 1); d != 0.1 {
		t.Fatalf("off burst: %v", d)
	}
	if d := b.Demand(110, 1); d != 1 {
		t.Fatalf("second period: %v", d)
	}
	zero := &Bursty{Low: 0.2}
	if d := zero.Demand(5, 1); d != 0.2 {
		t.Fatalf("zero period: %v", d)
	}
}

func TestTrace(t *testing.T) {
	tr := &Trace{Samples: []float64{0.1, 0.9, 0.5}, StepUs: 100}
	cases := map[int64]float64{0: 0.1, 99: 0.1, 100: 0.9, 250: 0.5, 10_000: 0.5}
	for now, want := range cases {
		if d := tr.Demand(now, 1); d != want {
			t.Fatalf("trace at %d = %v, want %v", now, d, want)
		}
	}
	empty := &Trace{}
	if empty.Demand(0, 1) != 0 {
		t.Fatal("empty trace demanded CPU")
	}
}

func TestDelayed(t *testing.T) {
	d := &Delayed{StartUs: 500, Inner: Busy()}
	if d.Demand(499, 1) != 0 {
		t.Fatal("ran before start")
	}
	if d.Demand(500, 1) != 1 {
		t.Fatal("did not run at start")
	}
	if u := d.Until(100); u != 500 {
		t.Fatalf("idle until %d, want the start 500", u)
	}
	if u := d.Until(700); u != Forever {
		t.Fatalf("busy until %d, want Forever", u)
	}
	tr := &Delayed{StartUs: 1000, Inner: &Trace{Samples: []float64{0, 1, 0}, StepUs: 100}}
	if u := tr.Until(1150); u != 1200 {
		t.Fatalf("trace phase ends at %d, want 1200: the inner horizon shifted by the start", u)
	}
}

func TestBenchValidation(t *testing.T) {
	if _, err := NewCompress7zip(0, 100, 1, 0); err == nil {
		t.Fatal("zero threads accepted")
	}
	if _, err := NewCompress7zip(1, 0, 1, 0); err == nil {
		t.Fatal("zero work accepted")
	}
	if _, err := NewCompress7zip(1, 10, 0, 0); err == nil {
		t.Fatal("zero runs accepted")
	}
	if _, err := NewOpenSSL(1, 10, 1, -5); err == nil {
		t.Fatal("negative start accepted")
	}
}

// Drive a bench by hand: a single thread doing 1000-cycle runs at a fixed
// 1000 MHz, 1 µs of CPU per step.
func TestBenchRunsAndScores(t *testing.T) {
	b, err := NewOpenSSL(1, 1000, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := b.Thread(0)
	now := int64(0)
	steps := 0
	for !b.Done() && steps < 10_000 {
		if d := src.Demand(now, 1); d == 1 {
			src.Account(now, 1, 1000) // 1 µs at 1000 MHz = 1000 cycles
		}
		now++
		steps++
	}
	if !b.Done() {
		t.Fatal("bench never finished")
	}
	res := b.Results()
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
	for i, r := range res {
		if r.Run != i {
			t.Fatalf("run index %d, want %d", r.Run, i)
		}
		if r.DurationUs() != 1 {
			t.Fatalf("run %d duration = %d µs, want 1", i, r.DurationUs())
		}
		if r.RateMHz() != 1000 {
			t.Fatalf("run %d rate = %v, want 1000", i, r.RateMHz())
		}
	}
}

func TestBenchBarrier(t *testing.T) {
	b, err := NewOpenSSL(2, 1000, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	fast, slow := b.Thread(0), b.Thread(1)
	now := int64(0)
	// Fast thread finishes its work immediately.
	if fast.Demand(now, 1) != 1 {
		t.Fatal("fast thread idle")
	}
	fast.Account(now, 1, 1000)
	if b.Done() {
		t.Fatal("bench done before slow thread finished")
	}
	// Finished thread waits at the barrier with tiny demand.
	if d := fast.Demand(now+1, 1); d >= 0.1 {
		t.Fatalf("barrier demand = %v, want small", d)
	}
	// Slow thread takes two steps.
	slow.Account(now+1, 1, 500)
	if b.Done() {
		t.Fatal("premature completion")
	}
	slow.Account(now+2, 1, 500)
	if !b.Done() {
		t.Fatal("bench not done after all work")
	}
	if got := b.Results()[0].DurationUs(); got != 3 {
		t.Fatalf("run duration = %d, want 3", got)
	}
}

func TestBenchDip(t *testing.T) {
	b, err := newBench("x", 1, 100, 2, 0, 50) // 50 µs dip
	if err != nil {
		t.Fatal(err)
	}
	src := b.Thread(0)
	src.Demand(0, 1)
	src.Account(0, 1, 100) // run 0 done at t=1
	// During the dip, demand is small and work is not accounted.
	if d := src.Demand(10, 1); d >= 0.1 {
		t.Fatalf("dip demand = %v", d)
	}
	src.Account(10, 1, 100)
	if b.Done() {
		t.Fatal("work accounted during dip")
	}
	// After the dip the second run starts.
	if d := src.Demand(60, 1); d != 1 {
		t.Fatalf("post-dip demand = %v", d)
	}
	src.Account(60, 1, 100)
	if !b.Done() {
		t.Fatal("run 2 incomplete")
	}
	r := b.Results()[1]
	if r.StartUs != 51 {
		t.Fatalf("run 2 start = %d, want 51 (end of dip)", r.StartUs)
	}
}

func TestBenchStartDelay(t *testing.T) {
	b, _ := NewOpenSSL(1, 100, 1, 1_000)
	src := b.Thread(0)
	if src.Demand(500, 1) != 0 {
		t.Fatal("demanded CPU before start")
	}
	if src.Demand(1_000, 1) != 1 {
		t.Fatal("idle at start time")
	}
}

func TestThreadIndexPanics(t *testing.T) {
	b, _ := NewOpenSSL(1, 100, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Thread did not panic")
		}
	}()
	b.Thread(5)
}

func TestSourcesCount(t *testing.T) {
	b, _ := NewCompress7zip(4, 100, 1, 0)
	if got := len(b.Sources()); got != 4 {
		t.Fatalf("Sources len = %d", got)
	}
	if b.Threads() != 4 || b.Name() != "compress-7zip" {
		t.Fatal("metadata wrong")
	}
}

// Property: a bench driven to completion always yields exactly `runs`
// results with positive durations and monotone non-overlapping intervals.
func TestQuickBenchCompletion(t *testing.T) {
	f := func(threads8, runs8 uint8, work16 uint16) bool {
		threads := int(threads8%4) + 1
		runs := int(runs8%5) + 1
		work := int64(work16%5000) + 1
		b, err := newBench("q", threads, work, runs, 0, 10)
		if err != nil {
			return false
		}
		now := int64(0)
		for !b.Done() && now < 1_000_000 {
			for i := 0; i < threads; i++ {
				if s := b.Thread(i); s.Demand(now, 2) == 1 {
					s.Account(now, 2, 1500)
				}
			}
			now += 2
		}
		if !b.Done() {
			return false
		}
		res := b.Results()
		if len(res) != runs {
			return false
		}
		prevEnd := int64(-1)
		for _, r := range res {
			if r.DurationUs() <= 0 || r.StartUs <= prevEnd {
				return false
			}
			prevEnd = r.EndUs
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Until never promises too much. For every source in this
// package, Demand at any t in [now, Until(now)) equals Demand at now; the
// last promised microsecond is always among the samples, since a horizon
// one step too late fails there first.
func TestUntilNeverPromisesTooMuch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	level := func() float64 { return float64(rng.Intn(5)) / 4 }
	period := func() int64 { return []int64{0, 1, 7, 100, 30_000, 100_000, 1_000_000}[rng.Intn(7)] }
	var sources []Source
	for i := 0; i < 400; i++ {
		var src Source
		switch i % 5 {
		case 0:
			src = &Constant{Level: level()}
		case 1:
			src = &Bursty{PeriodUs: period(), Duty: []float64{0, 0.3, 0.5, 1.0 / 3, 1, 1.5}[rng.Intn(6)],
				High: level(), Low: level(), PhaseUs: rng.Int63n(200_000)}
		case 2:
			samples := make([]float64, rng.Intn(5))
			for j := range samples {
				samples[j] = level()
			}
			src = &Trace{Samples: samples, StepUs: period()}
		case 3:
			src = &Delayed{StartUs: rng.Int63n(500_000), Inner: &Trace{Samples: []float64{level(), level(), level()}, StepUs: period()}}
		case 4:
			b, err := NewOpenSSL(1, 1000+rng.Int63n(100_000), 2, rng.Int63n(100_000))
			if err != nil {
				t.Fatal(err)
			}
			src = b.Thread(0)
		}
		sources = append(sources, src)
	}
	for i, src := range sources {
		for k := 0; k < 20; k++ {
			now := rng.Int63n(3_000_000)
			u := src.Until(now)
			if u < now {
				t.Fatalf("source %d (%T %+v): Until(%d) = %d lies in the past", i, src, src, now, u)
			}
			end := min(u, now+10_000_000) // Forever is sampled over ten seconds
			want := src.Demand(now, 10_000)
			for _, at := range []int64{now, end - 1, now + rng.Int63n(max(end-now, 1))} {
				if at < end && src.Demand(at, 10_000) != want {
					t.Fatalf("source %d (%T %+v): Until(%d) = %d, but Demand(%d) = %v differs from %v",
						i, src, src, now, u, at, src.Demand(at, 10_000), want)
				}
			}
		}
	}
}
