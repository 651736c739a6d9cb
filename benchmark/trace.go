package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"vfreq/internal/platform"
)

// Span names. The module name is the prefix, as in the metric names the
// spans aggregate into.
const (
	spPeriod = iota // one timed period: everything below nests in it
	spAdvance
	spStep
	spSync // the stage spans are synthesised from Controller.LastTimings
	spMonitor
	spEstimate
	spEnforce
	spAuction
	spDistribute
	spApply
	spPost
	spListVMs // the platform spans are recorded live by tracedHost
	spUsage
	spTID
	spLastCPU
	spFreq
	spSetMax
	spSetBurst
	spClusterStep
	spDeploy
	spUndeploy
	spMigrate
	spResize
	spRebalance
	spHealth
	spCount
)

var spanNames = [spCount]string{
	"period", "host.advance", "core.step",
	"core.sync", "core.monitor", "core.estimate", "core.enforce",
	"core.auction", "core.distribute", "core.apply", "core.post",
	"platform.listvms", "platform.usage", "platform.tid", "platform.lastcpu",
	"platform.freq", "platform.setmax", "platform.setburst",
	"cluster.step", "cluster.deploy", "cluster.undeploy", "cluster.migrate",
	"cluster.resize", "cluster.rebalance", "cluster.health",
}

// span is one timed interval. Times are nanoseconds since the tracer was
// created; parent is an index into the span slice (-1 for a root);
// period is the timed period the span belongs to, -1 outside one.
type span struct {
	start, end int64
	parent     int32
	period     int32
	name       uint8
}

// tracer keeps every span of the traced pass in memory; they are
// aggregated (and optionally dumped) only after the pass ends. The traced
// pass is single-goroutine (MonitorWorkers=1, StepWorkers=1), so spans
// nest by call order and the tracer needs no lock.
type tracer struct {
	t0     time.Time
	spans  []span
	open   int32 // innermost open span, -1 at top level
	period int32
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity), open: -1, period: -1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name uint8) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{parent: t.open, period: t.period, name: name})
	t.open = id
	t.spans[id].start = t.now() // last, so the append is outside the span
	return id
}

// end closes span id, which must be the innermost open one.
func (t *tracer) end(id int32) {
	now := t.now()
	s := &t.spans[id]
	s.end = now
	t.open = s.parent
}

// add records an already-measured interval as a child of parent.
func (t *tracer) add(name uint8, parent int32, start, end int64) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{start: start, end: end, parent: parent, period: t.period, name: name})
	return id
}

// spanAgg is the aggregate of one span name over the timed periods.
type spanAgg struct {
	count int64
	total int64 // Σ duration, ns
	self  int64 // Σ duration minus the part direct child spans cover, ns
}

// aggregate folds the spans of the timed periods (period ≥ 0; set-up,
// warm-up and the benchmark's own bookkeeping run with period -1) by
// name. Children of one span never overlap — the pass is
// single-goroutine — so self time is duration minus Σ child durations.
func (t *tracer) aggregate() [spCount]spanAgg {
	var agg [spCount]spanAgg
	for i := range t.spans {
		s := &t.spans[i]
		if s.period < 0 {
			continue
		}
		d := s.end - s.start
		a := &agg[s.name]
		a.count++
		a.total += d
		a.self += d
		if s.parent >= 0 {
			agg[t.spans[s.parent].name].self -= d
		}
	}
	return agg
}

// dump writes every span as one CSV row.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,period,name,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", i, s.parent, s.period, spanNames[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fullHost is a platform.Host with the three optional capabilities the
// controller probes for. platform.Sim and platform.Linux, the only hosts
// the benchmark wraps, both have all three; a host with fewer would need
// a wrapper that hides the ones it lacks.
type fullHost interface {
	platform.Host
	platform.BatchQuotaWriter
	platform.Topology
	platform.QuotaReader
}

// tracedHost decorates a fullHost with one span per call site and the
// write and failure counts of the platform layer over the timed periods
// (reads are counted from their spans; a batched write is one span but
// several quotas). It is a fullHost itself, so the controller takes the
// same path traced and untraced.
type tracedHost struct {
	inner fullHost
	tr    *tracer

	writes, failed int64
}

// note counts the outcome of one call inside a timed period.
func (h *tracedHost) note(quotasWritten int, err error) {
	if h.tr.period < 0 {
		return
	}
	h.writes += int64(quotasWritten)
	if err != nil {
		h.failed++
	}
}

func (h *tracedHost) Node() platform.NodeInfo { return h.inner.Node() }

func (h *tracedHost) ListVMs() ([]platform.VMInfo, error) {
	id := h.tr.begin(spListVMs)
	v, err := h.inner.ListVMs()
	h.tr.end(id)
	h.note(0, err)
	return v, err
}

func (h *tracedHost) UsageUs(vm string, vcpu int) (int64, error) {
	id := h.tr.begin(spUsage)
	v, err := h.inner.UsageUs(vm, vcpu)
	h.tr.end(id)
	h.note(0, err)
	return v, err
}

func (h *tracedHost) ThreadID(vm string, vcpu int) (int, error) {
	id := h.tr.begin(spTID)
	v, err := h.inner.ThreadID(vm, vcpu)
	h.tr.end(id)
	h.note(0, err)
	return v, err
}

func (h *tracedHost) LastCPU(tid int) (int, error) {
	id := h.tr.begin(spLastCPU)
	v, err := h.inner.LastCPU(tid)
	h.tr.end(id)
	h.note(0, err)
	return v, err
}

func (h *tracedHost) CoreFreqMHz(core int) (int64, error) {
	id := h.tr.begin(spFreq)
	v, err := h.inner.CoreFreqMHz(core)
	h.tr.end(id)
	h.note(0, err)
	return v, err
}

func (h *tracedHost) SetMax(vm string, vcpu int, quotaUs, periodUs int64) error {
	id := h.tr.begin(spSetMax)
	err := h.inner.SetMax(vm, vcpu, quotaUs, periodUs)
	h.tr.end(id)
	h.note(1, err)
	return err
}

func (h *tracedHost) ClearMax(vm string, vcpu int) error {
	id := h.tr.begin(spSetMax)
	err := h.inner.ClearMax(vm, vcpu)
	h.tr.end(id)
	h.note(1, err)
	return err
}

func (h *tracedHost) SetBurst(vm string, vcpu int, burstUs int64) error {
	id := h.tr.begin(spSetBurst)
	err := h.inner.SetBurst(vm, vcpu, burstUs)
	h.tr.end(id)
	h.note(0, err)
	return err
}

func (h *tracedHost) BatchSetMax(vm string, quotas []platform.VCPUQuota) error {
	id := h.tr.begin(spSetMax)
	err := h.inner.BatchSetMax(vm, quotas)
	h.tr.end(id)
	h.note(len(quotas), err)
	return err
}

// CoreNodes and ReadMax are not on the step's path: no span.

func (h *tracedHost) CoreNodes() ([]int, error) { return h.inner.CoreNodes() }

func (h *tracedHost) ReadMax(vm string, vcpu int) (int64, int64, error) {
	return h.inner.ReadMax(vm, vcpu)
}
