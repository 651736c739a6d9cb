// Command benchmark is the repository's benchmark: five closed-loop,
// single-process workloads generated from a seed, measured end to end
// (untraced pass) and layer by layer (traced pass, spans recorded from
// this package around the calls into each module). See README.md.
//
//	go run ./benchmark -workload all -seed 1
//	go run ./benchmark -workload node_dynamic -trace 1 -trace-out spans.csv
//	go run ./benchmark -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// defaultSeconds is the run length the period counts in spec.go are
// sized for on the 2-core reference machine.
const defaultSeconds = 20

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, options{}))
}

// run is the command. base carries what only this package's tests set
// (options.periods, options.setups); main passes none.
func run(args []string, stdout, stderr io.Writer, base options) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", defaultSeconds, "run length the period counts are scaled to (counts × seconds/20); at least 20")
	trace := fs.Int("trace", 0, "1 adds the traced pass and prints the per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1, dump the spans of the traced pass to this CSV file")
	selfcheck := fs.Bool("selfcheck", false, "run the end-to-end pass twice and compare the two against the bounds")
	tmp := fs.String("tmp", ".bench_build/tmp", "directory for node_linux_files' file tree")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// The counts at 20 s are the floor: cluster_fleet times 1 000 periods
	// there, and no workload may time fewer.
	if *seconds < defaultSeconds || *trace < 0 || *trace > 1 {
		fmt.Fprintf(stderr, "benchmark: -seconds must be at least %d (no workload times fewer than 1000 periods) and -trace 0 or 1\n", defaultSeconds)
		return 2
	}
	var selected []*workloadDef
	if *workload == "all" {
		selected = workloadDefs
	} else if w := workloadByName(*workload); w != nil {
		selected = []*workloadDef{w}
	} else {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	opt := base
	opt.seed, opt.scale, opt.tmpRoot, opt.traceOut = *seed, *seconds/defaultSeconds, *tmp, *traceOut

	printHeader(stdout, opt, *seconds)
	if *selfcheck {
		return runSelfcheck(stdout, stderr, selected, opt)
	}
	var results []*result
	for _, wl := range selected {
		res, err := measure(wl, opt, *trace == 1)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		res.print(stdout)
		results = append(results, res)
	}
	return emit(stdout, results, *trace == 1)
}

// gitCommit asks git for the commit of the checkout the benchmark runs
// in, marked -dirty when the tree differs from it; "unknown" where there
// is no git or no repository (the driver's checkout).
func gitCommit() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=40", "--exclude=*").Output()
	if err != nil || len(out) == 0 {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func printHeader(w io.Writer, opt options, seconds float64) {
	fmt.Fprintf(w, "vfreq benchmark: seed %d, seconds %g, nproc %d, GOMAXPROCS %d, %s, commit %s\n",
		opt.seed, seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gitCommit())
	if runtime.GOMAXPROCS(0) == 1 {
		fmt.Fprintln(w, "WARNING: GOMAXPROCS = 1: no worker pool can win here; cluster.pool_speedup is n/a")
	}
	for _, wl := range workloadDefs {
		fmt.Fprintf(w, "  %-17s %s\n", wl.name, wl.why)
	}
}

// result is what one invocation measured on one workload: the untraced
// pass and, with -trace 1, the traced one.
type result struct {
	wl     *workloadDef
	e2e    *pass
	traced *pass
}

// measure runs the pass or passes of one workload.
func measure(wl *workloadDef, opt options, trace bool) (*result, error) {
	res := &result{wl: wl}
	var err error
	if res.e2e, err = runPass(wl, opt, false); err != nil {
		return nil, err
	}
	if !trace {
		return res, nil
	}
	if res.traced, err = runPass(wl, opt, true); err != nil {
		return nil, err
	}
	// The two cross-pass metrics. Both compare the serial traced pass
	// with the untraced pass at the program's default pool sizes, on the
	// normalised step cost: the host's clock may differ between the two.
	tv, ev := res.traced.values, res.e2e.values
	if !wl.cluster {
		tv["trace.overhead_pct"] = 100 * (tv["step_p50_norm"] - ev["step_p50_norm"]) / ev["step_p50_norm"]
	} else if runtime.GOMAXPROCS(0) > 1 {
		tv["cluster.pool_speedup"] = tv["step_p50_norm"] / ev["step_p50_norm"]
	}
	res.traced.check(res.e2e.stateDigest == res.traced.stateDigest,
		"traced pass ended in state %016x, untraced in %016x", res.traced.stateDigest, res.e2e.stateDigest)
	return res, nil
}

func (r *result) attempted() int64 {
	n := r.e2e.attempted
	if r.traced != nil {
		n += r.traced.attempted
	}
	return n
}

func (r *result) failed() int64 {
	n := r.e2e.failed
	if r.traced != nil {
		n += r.traced.failed
	}
	return n
}

// value looks a metric up: end-to-end metrics only ever come from the
// untraced pass, layer metrics from the traced pass when there is one.
func (r *result) value(m *metricDef) (float64, bool) {
	if m.name == "failed_share" {
		return float64(r.failed()) / float64(r.attempted()), true
	}
	if m.layer && r.traced != nil {
		if v, ok := r.traced.values[m.name]; ok {
			return v, true
		}
	}
	v, ok := r.e2e.values[m.name]
	return v, ok
}

func (r *result) print(w io.Writer) {
	p := r.e2e
	fmt.Fprintf(w, "\n== %s: %d timed periods after %d warm-up\n", r.wl.name, p.periods, warmup)
	if p.in.digest != 0 {
		fmt.Fprintf(w, "   input digest  %016x\n", p.in.digest)
	}
	fmt.Fprintf(w, "   state digest  %016x\n", p.stateDigest)
	fmt.Fprintln(w, "   end-to-end (untraced pass; wall times as measured, *_norm ÷ the calibration kernel's time)")
	for i := range endToEnd {
		m := &endToEnd[i]
		v, ok := r.value(m)
		if !ok {
			continue
		}
		note := ""
		if m.name == "failed_share" {
			note = fmt.Sprintf("  (n=%d)", r.attempted())
		} else if n, ok := p.counts[m.name]; ok {
			note = fmt.Sprintf("  (n=%d)", n)
		} else if m.name == "setup_s" {
			note = fmt.Sprintf("  (median of %d)", r.wl.setups)
		}
		fmt.Fprintf(w, "     %-30s %14.4f %-6s%s\n", m.name, v, m.unit, note)
	}
	if r.traced == nil {
		fmt.Fprintln(w, "   layers (the † metrics; -trace 1 adds the rest)")
	} else {
		fmt.Fprintln(w, "   layers (traced pass: MonitorWorkers=1, StepWorkers=1)")
	}
	for i := range perLayer {
		m := &perLayer[i]
		if v, ok := r.value(m); ok {
			fmt.Fprintf(w, "     %-30s %14.4f %s\n", m.name, v, m.unit)
		} else if m.name == "cluster.pool_speedup" && r.traced != nil && r.wl.cluster {
			fmt.Fprintf(w, "     %-30s %14s\n", m.name, "n/a")
		}
	}
	fmt.Fprintf(w, "   checks: %d operations and output checks attempted, %d failed\n", r.attempted(), r.failed())
	for _, pass := range []*pass{r.e2e, r.traced} {
		if pass != nil {
			for _, msg := range pass.failMsgs {
				fmt.Fprintf(w, "   FAILED: %s\n", msg)
			}
		}
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the driver's result object as the last line of standard
// output and returns the exit code. For one workload the metrics are
// exactly the end_to_end names of BENCHMARK.json (untraced) or exactly
// its per_layer names (traced), a metric that does not apply to the
// workload reading 0; for -workload all each name is prefixed with its
// workload.
func emit(w io.Writer, results []*result, trace bool) int {
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Metrics: map[string]jsonMetric{}}
	for _, r := range results {
		out.Attempted += r.attempted()
		out.Failed += r.failed()
		prefix := ""
		if len(results) > 1 {
			prefix = r.wl.name + "/"
		}
		for _, m := range driverMetrics(trace) {
			v, _ := r.value(&m)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			out.Metrics[prefix+m.name] = jsonMetric{Value: v, Unit: m.unit}
		}
	}
	out.Correct = out.Failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(w, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "\n%s\n", line)
	if !out.Correct {
		return 1
	}
	return 0
}

// driverMetrics returns the metric list BENCHMARK.json declares for an
// untraced (end_to_end) or traced (per_layer) run.
func driverMetrics(trace bool) []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		if m.gated != trace {
			out = append(out, m)
		}
	}
	if trace {
		out = append(out, perLayer...)
	}
	return out
}

// runSelfcheck runs the end-to-end pass twice on one seed and compares
// the two runs of every workload.
func runSelfcheck(stdout, stderr io.Writer, selected []*workloadDef, opt options) int {
	bad := 0
	for _, wl := range selected {
		var runs [2]*pass
		for i := range runs {
			var err error
			if runs[i], err = runPass(wl, opt, false); err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 1
			}
		}
		bad += compare(stdout, wl, runs[0], runs[1])
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "\nselfcheck FAILED: %d comparisons out of bounds\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "\nselfcheck passed: both runs agree within every bound, deterministic values exactly")
	return 0
}

// compare prints, per metric, both values, their difference and the
// bound, and returns how many comparisons fail: a difference beyond its
// bound, a deterministic value (exact metrics, digests) that differs at
// all, or a failed operation. The check is symmetric: neither run is
// the baseline, so the bound applies to the better of the two values.
func compare(w io.Writer, wl *workloadDef, a, b *pass) int {
	bad := 0
	fmt.Fprintf(w, "\n== %s\n   %-26s %14s %14s %10s %10s\n", wl.name, "metric", "run 1", "run 2", "diff", "bound")
	row := func(name string, ok bool, x, y, diff float64, bound string) {
		mark := ""
		if !ok {
			mark = "  EXCEEDED"
			bad++
		}
		fmt.Fprintf(w, "   %-26s %14.4f %14.4f %10.4f %10s%s\n", name, x, y, diff, bound, mark)
	}
	// Every end-to-end metric is printed; of the layer metrics only the
	// deterministic ones, which must repeat exactly.
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		x, okx := a.values[m.name]
		y, oky := b.values[m.name]
		switch {
		case !okx || !oky:
		case m.exact:
			row(m.name, x == y, x, y, y-x, "exact")
		case m.bound > 0:
			base := math.Min(x, y)
			row(m.name, math.Abs(y-x) <= math.Max(m.bound*base, m.abs), x, y, math.Abs(y-x)/base, fmt.Sprintf("%.1f%%", 100*m.bound))
		case !m.layer:
			row(m.name, true, x, y, math.Abs(y-x)/math.Min(x, y), "not gated")
		}
	}
	verdict := "equal"
	if a.in.digest != b.in.digest || a.stateDigest != b.stateDigest {
		verdict = "DIFFER"
		bad++
	}
	fmt.Fprintf(w, "   digests: input %016x / %016x, state %016x / %016x: %s\n",
		a.in.digest, b.in.digest, a.stateDigest, b.stateDigest, verdict)
	if a.failed+b.failed > 0 {
		bad++
		fmt.Fprintf(w, "   FAILED operations or checks: %s\n", strings.Join(append(a.failMsgs, b.failMsgs...), "; "))
	}
	return bad
}
