package main

import "time"

// The calibration kernel.
//
// The machines this benchmark runs on are guests of a shared host whose
// cores change clock in steps, within seconds and with the other guests'
// load: on the 2-core reference machine the fixed integer kernel below
// takes anything from 58.9 µs to 75.0 µs, and every CPU-bound wall time
// moves with it, by up to 27 %, inside one run and from one run to the
// next. The wall times are reported as measured, under the names the
// issue defines. Beside them the benchmark reports two normalised costs
// (step_p50_norm, node_period_norm) in which the clock cancels: the
// kernel is timed every clockInterval throughout the run, outside every
// timed interval, and each timed sample is divided by the latest kernel
// time before it. Their unit is "kernels": a duration as a multiple of
// the time the same core needed, within 50 ms, for a fixed amount of
// work. No constant of any one machine enters.
const clockInterval = 50 * time.Millisecond

var (
	kernelTable [512]uint64
	kernelSink  uint64
)

// kernel is a fixed amount of integer work over a table that fits the
// L1 cache: its time depends on the core's clock and on little else.
func kernel() uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < 40_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		kernelTable[x&511] += x
	}
	return x + kernelTable[3]
}

// kernelTime times the kernel three times and returns the fastest, in
// nanoseconds: a preemption lengthens one timing, not all three.
func kernelTime() int64 {
	best := time.Duration(1 << 62)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		kernelSink += kernel()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return int64(best)
}
