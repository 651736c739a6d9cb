package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vfreq/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite the golden CSV files under testdata/")

// goldenScenarios are the three vfctl modes pinned by golden files:
// static (monitoring only), dynamic (control on, seeded fault
// injection) and cluster (3 nodes on the default step pool). Everything
// in the scenarios is seeded, and a cluster Step is bit-identical at any
// pool size, so the CSV is bit-identical run to run — except the cluster
// mode's wall-clock cluster_step_us column, which the test normalises
// away.
var goldenScenarios = []struct {
	name string
	sc   Scenario
}{
	{
		name: "static",
		sc: Scenario{
			Node:      "chetemi",
			DurationS: 20,
			Control:   false,
			VMs: []ScenarioVM{
				{Name: "web", VCPUs: 2, FreqMHz: 500, MemoryGB: 2, Workload: "bursty:10:0.4"},
				{Name: "batch", VCPUs: 4, FreqMHz: 1800, MemoryGB: 8, Workload: "busy"},
			},
		},
	},
	{
		name: "dynamic",
		sc: Scenario{
			Node:      "chetemi",
			DurationS: 20,
			Control:   true,
			FaultRate: 0.1,
			FaultSeed: 7,
			VMs: []ScenarioVM{
				{Name: "web", VCPUs: 2, FreqMHz: 500, MemoryGB: 2, Workload: "bursty:10:0.4"},
				{Name: "batch", VCPUs: 4, FreqMHz: 1800, MemoryGB: 8, Workload: "busy"},
				{Name: "crypto", VCPUs: 2, FreqMHz: 1200, MemoryGB: 4, Workload: "compress", GCycles: 5, Runs: 3},
			},
		},
	},
	{
		name: "cluster",
		sc: Scenario{
			Node:      "chetemi",
			DurationS: 20,
			Control:   true,
			Nodes:     3,
			VMs: []ScenarioVM{
				{Name: "web", VCPUs: 2, FreqMHz: 500, MemoryGB: 2, Workload: "busy"},
				{Name: "batch", VCPUs: 4, FreqMHz: 1800, MemoryGB: 8, Workload: "busy"},
				{Name: "crypto", VCPUs: 2, FreqMHz: 1200, MemoryGB: 4, Workload: "busy"},
			},
		},
	},
}

// TestCSVGolden pins the vfctl CSV contract per mode: the exact header
// plus the first and last data rows, with a fixed seed. A diff here
// means either the column layout or the controller's numbers moved —
// both are breaking changes for CSV consumers; regenerate deliberately
// with `go test ./cmd/vfctl -run TestCSVGolden -update`.
func TestCSVGolden(t *testing.T) {
	for _, tc := range goldenScenarios {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "out.csv")
			var err error
			if tc.sc.Nodes >= 2 {
				err = runSimCluster(tc.sc, out, metrics.NewRegistry())
			} else {
				err = runSim(tc.sc, out, checkpointOpts{}, metrics.NewRegistry())
			}
			if err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			rows, _ := splitCSV(string(raw))
			if len(rows) != tc.sc.DurationS+1 {
				t.Fatalf("CSV has %d data rows, want %d + header", len(rows), tc.sc.DurationS)
			}
			got := fmt.Sprintf("header: %s\nfirst:  %s\nlast:   %s\n",
				rows[0], normalizeRow(tc.sc, rows[1]), normalizeRow(tc.sc, rows[len(rows)-1]))

			golden := filepath.Join("testdata", "csv_"+tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("CSV golden mismatch for %s:\n got:\n%s\nwant:\n%s", tc.name, got, want)
			}
		})
	}
}

// normalizeRow blanks the wall-clock cluster_step_us column (cluster
// mode only, column 1); every other column is deterministic.
func normalizeRow(sc Scenario, row string) string {
	if sc.Nodes < 2 {
		return row
	}
	cols := strings.Split(row, ",")
	cols[1] = "<wall>"
	return strings.Join(cols, ",")
}
