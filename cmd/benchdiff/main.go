// Command benchdiff runs the repo's named benchmarks, records their
// results as a JSON artefact (BENCH_<n>.json), and optionally compares
// against a previous artefact with a tolerance gate.
//
// Typical use:
//
//	go run ./cmd/benchdiff -out BENCH_3.json                  # record
//	go run ./cmd/benchdiff -out BENCH_4.json \
//	    -baseline BENCH_3.json -tolerance 0.25 -gate          # record + gate
//	go run ./cmd/benchdiff -benchtime 1x -out /dev/null       # CI smoke
//
// The gate compares ns/op and allocs/op for benchmarks present in both
// files and fails (exit 1) when a metric regresses by more than the
// tolerance fraction. Custom metrics (nodes_eq7, step_µs, …) are
// recorded and printed but never gated: they are reproduction results,
// not performance, and should be judged against EXPERIMENTS.md instead.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultBench selects the perf-tracked benchmarks: the full-step and
// cluster macro benchmarks plus the stage micro benchmarks.
const defaultBench = "Fig2ControllerStep|ControllerOverhead|DynamicCluster|MonitorStage|ApplyStage|Auction$|SteadyStep|EstimateEnforce|ClusterScale|MetricsRecord"

// defaultPkgs holds the packages that define those benchmarks.
var defaultPkgs = []string{".", "./internal/core", "./internal/cluster", "./internal/metrics"}

// Result is one benchmark line: the iteration count plus every
// value-unit pair go test printed (ns/op, B/op, allocs/op, custom
// metrics).
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Artefact is the persisted BENCH_<n>.json document.
type Artefact struct {
	Schema     int      `json:"schema"`
	RecordedAt string   `json:"recorded_at"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	NumCPU     int      `json:"num_cpu"`
	Bench      string   `json:"bench"`
	BenchTime  string   `json:"benchtime"`
	Results    []Result `json:"results"`
}

func main() {
	var (
		bench     = flag.String("bench", defaultBench, "benchmark regexp passed to go test -bench")
		benchtime = flag.String("benchtime", "1s", "go test -benchtime value (use 1x for a smoke run)")
		pkgs      = flag.String("pkgs", strings.Join(defaultPkgs, ","), "comma-separated packages to benchmark")
		out       = flag.String("out", "", "output JSON path (e.g. BENCH_3.json); empty = print only")
		baseline  = flag.String("baseline", "", "previous BENCH_<n>.json to compare against")
		tolerance = flag.Float64("tolerance", 0.25, "allowed fractional regression for gated metrics")
		gate      = flag.Bool("gate", false, "exit non-zero when a gated metric regresses beyond tolerance")
		gateOn    = flag.String("gate-metrics", strings.Join(gatedMetrics, ","),
			"comma-separated metrics the tolerance gate enforces (allocs/op alone is machine-independent)")
	)
	flag.Parse()
	gatedMetrics = strings.Split(*gateOn, ",")

	art, err := run(*bench, *benchtime, strings.Split(*pkgs, ","))
	if err != nil {
		fatal(err)
	}
	if len(art.Results) == 0 {
		fatal(fmt.Errorf("no benchmark results parsed; check -bench %q", *bench))
	}
	if *out != "" && *out != "/dev/null" {
		buf, err := json.MarshalIndent(art, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d results to %s\n", len(art.Results), *out)
	}
	if *baseline == "" {
		return
	}
	prev, err := load(*baseline)
	if err != nil {
		fatal(err)
	}
	regressions := compare(prev, art, *tolerance)
	if len(regressions) > 0 && *gate {
		fmt.Fprintf(os.Stderr, "benchdiff: %d metric(s) regressed beyond %.0f%%:\n",
			len(regressions), *tolerance*100)
		for _, r := range regressions {
			fmt.Fprintf(os.Stderr, "  %s %s: %.2f -> %.2f (%+.1f%%)\n",
				r.bench, r.metric, r.oldV, r.newV, r.dv*100)
		}
		os.Exit(1)
	}
}

// run invokes go test -bench and parses its output into an Artefact.
func run(bench, benchtime string, pkgs []string) (*Artefact, error) {
	args := []string{"test", "-run", "^$", "-bench", bench, "-benchmem", "-benchtime", benchtime}
	args = append(args, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	art := &Artefact{
		Schema:     1,
		RecordedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		Bench:      bench,
		BenchTime:  benchtime,
	}
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		if r, ok := parseLine(line); ok {
			art.Results = append(art.Results, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go test -bench failed: %w", err)
	}
	return art, nil
}

// parseLine parses one "BenchmarkName-4  iters  v unit  v unit ..."
// line. The -<GOMAXPROCS> suffix is stripped so artefacts recorded on
// machines with different core counts stay comparable by name.
func parseLine(line string) (Result, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return Result{}, false
	}
	fields := strings.Fields(line)
	// name, iterations, then (value, unit) pairs.
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Result{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, true
}

func load(path string) (*Artefact, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var art Artefact
	if err := json.Unmarshal(buf, &art); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &art, nil
}

// gatedMetrics are the performance metrics the tolerance gate enforces
// by default (narrowed by -gate-metrics); everything else is
// informational.
var gatedMetrics = []string{"ns/op", "allocs/op"}

type regression struct {
	bench, metric  string
	oldV, newV, dv float64
}

// compare prints a delta table for every benchmark present in both
// artefacts and returns the gated metrics that regressed beyond tol.
func compare(prev, cur *Artefact, tol float64) []regression {
	old := map[string]Result{}
	for _, r := range prev.Results {
		old[r.Name] = r
	}
	var regs []regression
	fmt.Printf("\n%-44s %-12s %14s %14s %8s\n", "benchmark", "metric", "old", "new", "delta")
	for _, r := range cur.Results {
		o, ok := old[r.Name]
		if !ok {
			fmt.Printf("%-44s (new benchmark, no baseline)\n", r.Name)
			continue
		}
		names := make([]string, 0, len(r.Metrics))
		for m := range r.Metrics {
			if _, ok := o.Metrics[m]; ok {
				names = append(names, m)
			}
		}
		sort.Strings(names)
		for _, m := range names {
			ov, nv := o.Metrics[m], r.Metrics[m]
			var dv float64
			if ov != 0 {
				dv = (nv - ov) / ov
			} else if nv != 0 {
				dv = 1
			}
			mark := ""
			if gated(m) && dv > tol {
				mark = "  REGRESSED"
				regs = append(regs, regression{r.Name, m, ov, nv, dv})
			}
			fmt.Printf("%-44s %-12s %14.2f %14.2f %+7.1f%%%s\n", r.Name, m, ov, nv, dv*100, mark)
		}
	}
	return regs
}

func gated(metric string) bool {
	for _, m := range gatedMetrics {
		if m == metric {
			return true
		}
	}
	return false
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}
