package metrics

import "testing"

// BenchmarkMetricsRecord times the hot path TestRecordZeroAlloc gates at
// 0 allocs: one counter add, one gauge set and one histogram observation
// — the per-stage record cost the controller pays each step.
func BenchmarkMetricsRecord(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("vfreq_bench_total", "h", Label{"stage", "apply"})
	g := r.Gauge("vfreq_bench_gauge", "h")
	h := r.Histogram("vfreq_bench_us", "h", DefaultLatencyBucketsUs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
		g.Set(int64(i))
		h.Observe(int64(i % 2_000_000))
	}
}

// BenchmarkMetricsRecordParallel measures contention on the shared
// atomics when many workers record at once (the cluster pool shape).
func BenchmarkMetricsRecordParallel(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("vfreq_bench_par_total", "h")
	h := r.Histogram("vfreq_bench_par_us", "h", DefaultLatencyBucketsUs)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := int64(0)
		for pb.Next() {
			c.Add(1)
			h.Observe(i % 2_000_000)
			i++
		}
	})
}

// BenchmarkWriteText sizes the exposition cost for a realistic registry
// (a few dozen families) — the scrape path, not the record path.
func BenchmarkWriteText(b *testing.B) {
	r := NewRegistry()
	stages := []string{"monitor", "estimate", "enforce", "auction", "distribute", "apply"}
	for _, s := range stages {
		h := r.Histogram("vfreq_stage_us", "h", DefaultLatencyBucketsUs, Label{"stage", s})
		for v := int64(1); v < 100_000; v *= 3 {
			h.Observe(v)
		}
	}
	for i := 0; i < 20; i++ {
		r.Counter("vfreq_bench_events_total", "h", Label{"kind", stages[i%len(stages)]}).Add(int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = text(b, r)
	}
}
