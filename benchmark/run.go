package main

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"time"

	"vfreq/internal/core"
)

// warmup is the number of periods every workload runs and discards
// before timing starts; they count as set-up.
const warmup = 20

// options are the settings of one invocation that reach the workloads.
type options struct {
	seed     int64
	scale    float64 // period-count scale: -seconds / 20, never below 1
	tmpRoot  string  // where node_linux_files builds its file tree
	traceOut string  // span dump of the traced pass, "" for none

	// Set by this package's tests only, never from the command line: the
	// published counts are constants.
	periods int // when positive, overrides the scaled period count
	setups  int // when positive, overrides the set-up repetitions
}

// runner is one built instance of a workload, driven a period at a time.
type runner interface {
	// period runs closed-loop period k, counted from the first warm-up
	// period. It records into the pass only while pass.recording.
	period(k int)
	// finish runs the end-of-run output checks and stores the
	// workload's own metrics and state digest.
	finish()
	// close tears the instance down.
	close()
}

// pass accumulates what one pass (untraced or traced) over one workload
// measures. The runners write the raw sums; finalize turns them into
// named metric values.
type pass struct {
	wl      *workloadDef
	opt     options
	periods int // timed periods
	in      inputs
	tr      *tracer
	th      *tracedHost // set by node workloads in the traced pass
	tree    *fileTree   // node_linux_files: kept across the pass's set-ups

	recording bool
	timedIdx  int   // index of the current timed period
	lastSpan  int32 // the span the last span() call recorded

	kernelNs    int64     // the latest calibration kernel time (clock.go)
	kernelTimes []int64   // every calibration of the timed section
	stepNs      []int64   // wall time of the control call, one per timed period
	stepNorm    []float64 // the same, each ÷ the kernel time in force
	busyNs      int64     // Σ wall time of the calls that complete node-periods
	periodNorm  []float64 // per timed period, the same per node-period ÷ the kernel time in force
	nodePeriods int64
	stage       core.StageTimings // Σ over timed periods (and nodes)
	postNs      int64             // Σ Step wall − Timings.Total (node workloads)
	vcpuPeriods int64             // Σ controlled vCPUs over timed periods

	degraded, retries, overruns int64
	slaSamples, slaMet          int64
	usedNodes                   int64 // Σ UsedNodes over timed periods

	attempted, failed int64
	failMsgs          []string

	setupS      float64
	values      map[string]float64
	counts      map[string]int64 // sample counts, by metric name
	stateDigest uint64
}

// fail counts one failed operation or output check.
func (p *pass) fail(format string, args ...any) {
	p.failed++
	if len(p.failMsgs) < 8 {
		p.failMsgs = append(p.failMsgs, fmt.Sprintf(format, args...))
	}
}

// check counts one output check, failed unless ok.
func (p *pass) check(ok bool, format string, args ...any) {
	p.attempted++
	if !ok {
		p.fail(format, args...)
	}
}

// span times f, as a span of the traced pass or with the wall clock.
func (p *pass) span(name uint8, f func()) int64 {
	if p.tr != nil {
		id := p.tr.begin(name)
		f()
		p.tr.end(id)
		p.lastSpan = id
		s := &p.tr.spans[id]
		return s.end - s.start
	}
	t0 := time.Now()
	f()
	return int64(time.Since(t0))
}

// beginPeriod opens the root span of a timed period; endPeriod closes it.
func (p *pass) beginPeriod() int32 {
	if p.tr == nil || !p.recording {
		return -1
	}
	p.tr.period = int32(p.timedIdx)
	return p.tr.begin(spPeriod)
}

func (p *pass) endPeriod(id int32) {
	if id >= 0 {
		p.tr.end(id)
		p.tr.period = -1
	}
}

// addTimings folds one controller Step's stage timings into the pass.
func (p *pass) addTimings(t core.StageTimings) {
	p.stage.Monitor += t.Monitor
	p.stage.Estimate += t.Estimate
	p.stage.Enforce += t.Enforce
	p.stage.Auction += t.Auction
	p.stage.Distribute += t.Distribute
	p.stage.Apply += t.Apply
	p.stage.Total += t.Total
}

// addReport folds one controller Step's degradation totals into the
// pass. planned marks a step inside a planned blackout window, where
// degradation is the expected outcome and not a failure.
func (p *pass) addReport(r *core.StepReport, planned bool) {
	p.vcpuPeriods += int64(r.VCPUs)
	p.degraded += int64(r.DegradedVCPUs)
	p.retries += int64(r.Retries)
	if r.Overrun {
		p.overruns++
	}
	if !planned && (r.DegradedVCPUs > 0 || r.Retries > 0 || r.Overrun) {
		p.fail("step %d: %d degraded vCPUs, %d retries, overrun=%v outside a planned blackout",
			r.Step, r.DegradedVCPUs, r.Retries, r.Overrun)
	}
}

// slaDue advances one VM's streak of demanding periods and reports
// whether an SLA sample is due: the VM has demanded its template share
// for slaWindow periods. slaCount then takes the sample: met when the
// frequency delivered over the period reaches slaDelivered × the
// template frequency. (Two calls rather than one with a callback, which
// would allocate per VM and period and drown go.allocs_per_period.)
func (p *pass) slaDue(streak *int, demanding bool) bool {
	if !demanding {
		*streak = 0
		return false
	}
	*streak++
	return p.recording && *streak >= slaWindow
}

func (p *pass) slaCount(deliveredMHz float64, templateMHz int64) {
	p.slaSamples++
	if deliveredMHz >= slaDelivered*float64(templateMHz) {
		p.slaMet++
	}
}

// recordStep takes one timed period's samples: the control call's wall
// time, and the wall time of everything that completed the period's
// node-periods, one per node.
func (p *pass) recordStep(stepNs, busyNs int64, nodes int) {
	k := float64(p.kernelNs)
	p.stepNs = append(p.stepNs, stepNs)
	p.stepNorm = append(p.stepNorm, float64(stepNs)/k)
	p.busyNs += busyNs
	p.periodNorm = append(p.periodNorm, float64(busyNs)/k/float64(nodes))
	p.nodePeriods += int64(nodes)
}

// recordNodeStep folds the controller Step a node workload just timed
// (the last span) into the pass; advNs is the simulator advance that
// preceded it, 0 where there is no simulator.
func (p *pass) recordNodeStep(c *core.Controller, advNs, stepNs int64, err error) {
	if !p.recording {
		return
	}
	rep := c.LastReport()
	if p.tr != nil {
		p.stageSpans(p.lastSpan, rep.Timings)
	}
	p.recordStep(stepNs, advNs+stepNs, 1)
	p.usedNodes++
	p.postNs += stepNs - int64(rep.Timings.Total)
	p.addTimings(rep.Timings)
	p.attempted++
	if err != nil {
		p.fail("step %d: %v", rep.Step, err)
	}
	p.addReport(&rep, false)
}

// stageSpans lays the stages of the Step just recorded as span stepID
// out as child spans, from Controller.LastTimings: sync first (whatever
// of Total the six stages do not cover), the six stages in order, then
// post (the rest of the Step's wall time). The platform spans recorded
// live inside the Step are re-parented to the stage that contains them.
func (p *pass) stageSpans(stepID int32, t core.StageTimings) {
	tr := p.tr
	step := tr.spans[stepID]
	tr.period = step.period
	defer func() { tr.period = -1 }()
	six := t.Monitor + t.Estimate + t.Enforce + t.Auction + t.Distribute + t.Apply
	durs := [...]time.Duration{t.Total - six, t.Monitor, t.Estimate, t.Enforce, t.Auction, t.Distribute, t.Apply}
	first := int32(len(tr.spans))
	at := step.start
	for i, d := range durs {
		tr.add(uint8(spSync+i), stepID, at, at+int64(d))
		at += int64(d)
	}
	tr.add(spPost, stepID, at, step.end)
	for i := stepID + 1; i < first; i++ {
		s := &tr.spans[i]
		if s.parent != stepID {
			continue
		}
		for j := first; j < first+8; j++ {
			if s.start < tr.spans[j].end || j == first+7 {
				s.parent = j
				break
			}
		}
	}
}

// percentile returns the q-quantile (0 < q ≤ 1) of sorted samples by
// the nearest-rank method.
func percentile[T cmp.Ordered](sorted []T, q float64) T {
	if len(sorted) == 0 {
		var zero T
		return zero
	}
	i := int(q*float64(len(sorted))+0.9999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// liveHeap collects and returns the bytes of heap still in use.
func liveHeap() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// runPass runs one pass of a workload: input generation, the set-ups
// (the median of their times is setup_s; the last one is kept and
// measured), the timed periods with the calibration kernel timed between
// them, the output checks and the metric roll-up.
func runPass(wl *workloadDef, opt options, traced bool) (*pass, error) {
	periods := opt.periods
	if periods <= 0 {
		periods = int(float64(wl.periods)*opt.scale + 0.5)
	}
	p := &pass{
		wl: wl, opt: opt, periods: periods,
		values: map[string]float64{}, counts: map[string]int64{},
		stepNs: make([]int64, 0, periods), stepNorm: make([]float64, 0, periods), periodNorm: make([]float64, 0, periods),
		kernelTimes: make([]int64, 0, 4096),
	}
	if wl.gen != nil {
		p.in = wl.gen(opt.seed, warmup+periods)
	}
	if traced {
		p.tr = newTracer(periods*wl.spansPerPeriod + 4096)
	}
	defer func() {
		if p.tree != nil {
			p.tree.remove()
		}
	}()
	// heap_mb is the program's heap, not the benchmark's: what is live
	// now — the generated inputs, the sample buffers — is subtracted.
	heap0 := liveHeap()
	setups := wl.setups
	if opt.setups > 0 {
		setups = opt.setups
	}
	if traced {
		setups = 1 // setup_s is an end-to-end metric: untraced pass only
	}
	var run runner
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if run != nil {
			run.close()
		}
		// Each set-up starts from a collected heap; collecting also lets
		// the descriptors a closed instance left to finalizers go.
		runtime.GC()
		t0 := time.Now()
		var err error
		if run, err = wl.build(p); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
		}
		for k := 0; k < warmup; k++ {
			run.period(k)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	slices.Sort(setupTimes)
	p.setupS = percentile(setupTimes, 0.50)

	var m0, m1 runtime.MemStats
	var lastClock time.Time
	runtime.GC()
	runtime.ReadMemStats(&m0)
	p.recording = true
	for k := 0; k < periods; k++ {
		if now := time.Now(); now.Sub(lastClock) >= clockInterval {
			p.kernelNs = kernelTime()
			p.kernelTimes = append(p.kernelTimes, p.kernelNs)
			lastClock = now
		}
		p.timedIdx = k
		run.period(warmup + k)
	}
	p.recording = false
	runtime.ReadMemStats(&m1)

	run.finish()
	heapMB := (liveHeap() - heap0) / 1e6
	run.close()
	p.finalize(&m0, &m1, heapMB)
	if traced && opt.traceOut != "" {
		if err := p.tr.dump(opt.traceOut); err != nil {
			return nil, fmt.Errorf("%s: writing spans: %w", wl.name, err)
		}
	}
	return p, nil
}

// finalize turns the raw sums into named metric values. Metrics that do
// not apply to the workload are left out.
func (p *pass) finalize(m0, m1 *runtime.MemStats, heapMB float64) {
	v, n := p.values, float64(p.periods)
	slices.Sort(p.stepNs)
	slices.Sort(p.stepNorm)
	slices.Sort(p.periodNorm)
	slices.Sort(p.kernelTimes)
	if p.tr == nil {
		v["setup_s"] = p.setupS
		v["heap_mb"] = heapMB
		v["used_nodes_mean"] = float64(p.usedNodes) / n
	}
	v["step_p50_us"] = us(percentile(p.stepNs, 0.50))
	v["step_p99_us"] = us(percentile(p.stepNs, 0.99))
	v["step_p50_norm"] = percentile(p.stepNorm, 0.50)
	p.counts["step_p50_us"] = int64(len(p.stepNs))
	p.counts["step_p99_us"] = int64(len(p.stepNs))
	p.counts["step_p50_norm"] = int64(len(p.stepNs))
	v["node_periods_per_s"] = float64(p.nodePeriods) / (float64(p.busyNs) / 1e9)
	v["node_period_norm"] = percentile(p.periodNorm, 0.50)
	v["host.kernel_us"] = us(percentile(p.kernelTimes, 0.50))
	if p.slaSamples > 0 {
		v["sla_met_share"] = float64(p.slaMet) / float64(p.slaSamples)
		p.counts["sla_met_share"] = p.slaSamples
	}

	// The † layer metrics: free in both passes.
	six := p.stage.Monitor + p.stage.Estimate + p.stage.Enforce + p.stage.Auction + p.stage.Distribute + p.stage.Apply
	v["core.monitor_us"] = us(int64(p.stage.Monitor)) / n
	v["core.estimate_us"] = us(int64(p.stage.Estimate)) / n
	v["core.enforce_us"] = us(int64(p.stage.Enforce)) / n
	v["core.auction_us"] = us(int64(p.stage.Auction)) / n
	v["core.distribute_us"] = us(int64(p.stage.Distribute)) / n
	v["core.apply_us"] = us(int64(p.stage.Apply)) / n
	v["core.sync_us"] = us(int64(p.stage.Total-six)) / n
	if !p.wl.cluster {
		v["core.post_us"] = us(p.postNs) / n
	}
	v["core.degraded_vcpus"] = float64(p.degraded)
	v["core.retries"] = float64(p.retries)
	v["core.overruns"] = float64(p.overruns)
	v["go.allocs_per_period"] = float64(m1.Mallocs-m0.Mallocs) / n
	v["go.alloc_bytes_per_period"] = float64(m1.TotalAlloc-m0.TotalAlloc) / n
	v["go.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	v["go.gc_pause_us"] = us(int64(m1.PauseTotalNs - m0.PauseTotalNs))
	v["go.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))

	if p.tr != nil {
		p.finalizeTrace()
	}
}

// finalizeTrace adds the layer metrics only the traced pass can give.
func (p *pass) finalizeTrace() {
	v, n := p.values, float64(p.periods)
	agg := p.tr.aggregate()
	perPeriod := func(name uint8) float64 { return us(agg[name].total) / n }
	// What the period spans' children do not cover is the benchmark's
	// own work between them: everything else is attributed to a layer.
	v["trace.coverage"] = 1 - float64(agg[spPeriod].self)/float64(agg[spPeriod].total)
	if agg[spAdvance].count > 0 {
		v["host.advance_us"] = perPeriod(spAdvance)
		v["host.advance_share"] = float64(agg[spAdvance].total) / float64(agg[spAdvance].total+agg[spStep].total)
	}
	if p.th == nil {
		return
	}
	v["platform.listvms_us"] = perPeriod(spListVMs)
	v["platform.usage_us"] = perPeriod(spUsage)
	v["platform.tid_us"] = perPeriod(spTID)
	v["platform.lastcpu_us"] = perPeriod(spLastCPU)
	v["platform.freq_us"] = perPeriod(spFreq)
	v["platform.setmax_us"] = perPeriod(spSetMax)
	reads := agg[spListVMs].count + agg[spUsage].count + agg[spTID].count + agg[spLastCPU].count + agg[spFreq].count
	v["platform.read_calls"] = float64(reads) / n
	v["platform.write_calls"] = float64(p.th.writes) / n
	v["platform.write_skipped_share"] = 1 - float64(p.th.writes)/float64(p.vcpuPeriods)
	v["platform.failed_calls"] = float64(p.th.failed)
	v["core.monitor_self_us"] = us(agg[spMonitor].self) / n
	v["core.apply_self_us"] = us(agg[spApply].self) / n
	v["core.sync_self_us"] = us(agg[spSync].self) / n
}
