package metrics

import (
	"io"
	"strings"
	"sync"
	"testing"

	"vfreq/internal/raceflag"
)

// text renders r's exposition, failing tb if WriteText does.
func text(tb testing.TB, r *Registry) string {
	tb.Helper()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		tb.Fatal(err)
	}
	return b.String()
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("vfreq_test_total", "test counter")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("vfreq_test_gauge", "test gauge")
	g.Set(7)
	g.Set(5)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestRegistrationIsIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("vfreq_idem_total", "h", Label{"stage", "monitor"})
	b := r.Counter("vfreq_idem_total", "h", Label{"stage", "monitor"})
	if a != b {
		t.Fatal("same (name, labels) must return the same counter")
	}
	other := r.Counter("vfreq_idem_total", "h", Label{"stage", "apply"})
	if a == other {
		t.Fatal("different label values must return distinct counters")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("vfreq_kind_total", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("vfreq_kind_total", "h")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("metric name with a dash must panic")
		}
	}()
	r.Counter("bad-name", "h")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("vfreq_lat_us", "h", []int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 99, 500, 5000} {
		h.Observe(v)
	}
	if got := h.Count(); got != 6 {
		t.Fatalf("count = %d, want 6", got)
	}
	if got := h.Sum(); got != 5+10+11+99+500+5000 {
		t.Fatalf("sum = %d", got)
	}
	// Bucket membership: le=10 → {5,10}; le=100 → +{11,99}; le=1000 →
	// +{500}; +Inf → +{5000}. The exposition renders cumulative counts.
	text := text(t, r)
	for _, want := range []string{
		`vfreq_lat_us_bucket{le="10"} 2`,
		`vfreq_lat_us_bucket{le="100"} 4`,
		`vfreq_lat_us_bucket{le="1000"} 5`,
		`vfreq_lat_us_bucket{le="+Inf"} 6`,
		`vfreq_lat_us_sum 5625`,
		`vfreq_lat_us_count 6`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestNilInstrumentsAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(3)
	g.Set(1)
	h.Observe(42)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
}

// TestWriteTextDeterministic pins the full exposition for a small
// registry: families sorted by name, series sorted by label set,
// HELP/TYPE headers, and identical output across repeated renders.
func TestWriteTextDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("vfreq_z_total", "last family").Add(2)
	r.Gauge("vfreq_a_gauge", "first family", Label{"node", "n1"}).Set(4)
	r.Gauge("vfreq_a_gauge", "first family", Label{"node", "n0"}).Set(3)
	r.Histogram("vfreq_m_us", "middle family", []int64{100}).Observe(7)

	want := strings.Join([]string{
		`# HELP vfreq_a_gauge first family`,
		`# TYPE vfreq_a_gauge gauge`,
		`vfreq_a_gauge{node="n0"} 3`,
		`vfreq_a_gauge{node="n1"} 4`,
		`# HELP vfreq_m_us middle family`,
		`# TYPE vfreq_m_us histogram`,
		`vfreq_m_us_bucket{le="100"} 1`,
		`vfreq_m_us_bucket{le="+Inf"} 1`,
		`vfreq_m_us_sum 7`,
		`vfreq_m_us_count 1`,
		`# HELP vfreq_z_total last family`,
		`# TYPE vfreq_z_total counter`,
		`vfreq_z_total 2`,
	}, "\n") + "\n"

	first := text(t, r)
	if first != want {
		t.Fatalf("exposition mismatch\n got:\n%s\nwant:\n%s", first, want)
	}
	if second := text(t, r); second != first {
		t.Fatal("exposition must be deterministic across renders")
	}
}

func TestHistogramLabelOrderCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("vfreq_lbl_total", "h", Label{"a", "1"}, Label{"b", "2"})
	b := r.Counter("vfreq_lbl_total", "h", Label{"b", "2"}, Label{"a", "1"})
	if a != b {
		t.Fatal("label order must not distinguish series")
	}
}

func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("vfreq_esc_total", "h", Label{"path", `a"b\c` + "\nd"}).Inc()
	text := text(t, r)
	want := `vfreq_esc_total{path="a\"b\\c\nd"} 1`
	if !strings.Contains(text, want+"\n") {
		t.Fatalf("escaped exposition missing %q:\n%s", want, text)
	}
}

// TestConcurrentRecording is the metrics race test named in CI: many
// goroutines hammer the same instruments while another renders the
// exposition. Run with -race; correctness check is the final totals.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("vfreq_race_total", "h")
	g := r.Gauge("vfreq_race_gauge", "h")
	h := r.Histogram("vfreq_race_us", "h", DefaultLatencyBucketsUs)

	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(int64(i))
				h.Observe(int64(w*1000 + i))
				// Concurrent registration of the same series must be
				// safe too (it is how components arm lazily).
				if i%500 == 0 {
					r.Counter("vfreq_race_total", "h").Add(0)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = r.WriteText(io.Discard)
		}
	}()
	wg.Wait()
	<-done

	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// TestRecordZeroAlloc gates the core contract directly: recording into
// every instrument kind must not allocate.
func TestRecordZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	r := NewRegistry()
	c := r.Counter("vfreq_za_total", "h", Label{"stage", "monitor"})
	g := r.Gauge("vfreq_za_gauge", "h")
	h := r.Histogram("vfreq_za_us", "h", DefaultLatencyBucketsUs)
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		g.Set(9)
		h.Observe(1234)
		h.Observe(999_999_999) // +Inf bucket
	})
	if allocs != 0 {
		t.Fatalf("recording allocates %.1f/op, want 0", allocs)
	}
}
