// Command placement compares VM placement policies on a cluster.
//
//	placement -nodes chetemi:12,chiclet:10 -vms small:250,medium:50,large:100 \
//	          -alg best -mode freq -factor 1.0 -memory
//
// Node kinds are the paper's chetemi/chiclet; VM kinds the paper's
// small/medium/large templates. With -compare, the tool prints the full
// §IV-C comparison (classic vs Eq. 7 vs consolidation factor) instead of
// a single run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"vfreq/internal/experiments"
	"vfreq/internal/placement"
)

func main() {
	nodesFlag := flag.String("nodes", "chetemi:12,chiclet:10", "cluster: kind:count,...")
	vmsFlag := flag.String("vms", "small:250,medium:50,large:100", "workload: kind:count,...")
	algFlag := flag.String("alg", "best", "packing algorithm: first, best, worst")
	modeFlag := flag.String("mode", "freq", "constraint: core (vCPU count) or freq (Eq. 7)")
	factor := flag.Float64("factor", 1.0, "consolidation factor")
	memory := flag.Bool("memory", true, "enforce node memory capacity")
	split := flag.Bool("split", false, "per-core splitting (freq mode only)")
	sorted := flag.Bool("sorted", false, "sort VMs by decreasing demand first")
	compare := flag.Bool("compare", false, "print the paper's §IV-C comparison instead")
	flag.Parse()

	if *compare {
		rows, err := experiments.RunPlacementComparison()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-42s %-6s %-9s %-12s %-12s %-10s\n",
			"policy", "nodes", "unplaced", "max lg/chic", "max sm/chet", "idle save")
		for _, r := range rows {
			fmt.Printf("%-42s %-6d %-9d %-12d %-12d %.0f W\n",
				r.Label, r.UsedNodes, r.Unplaced, r.MaxLargePerChiclet,
				r.MaxSmallPerChetemi, r.IdleSavingsWatts)
		}
		return
	}

	nodes, err := parseNodes(*nodesFlag)
	if err != nil {
		fatal(err)
	}
	vms, err := parseVMs(*vmsFlag)
	if err != nil {
		fatal(err)
	}
	if *sorted {
		placement.SortDecreasing(vms)
	}
	var alg placement.Algorithm
	switch *algFlag {
	case "first":
		alg = placement.FirstFit
	case "best":
		alg = placement.BestFit
	case "worst":
		alg = placement.WorstFit
	default:
		fatal(fmt.Errorf("unknown algorithm %q", *algFlag))
	}
	var mode placement.ConstraintMode
	switch *modeFlag {
	case "core":
		mode = placement.CoreCount
	case "freq":
		mode = placement.VirtualFrequency
	default:
		fatal(fmt.Errorf("unknown mode %q", *modeFlag))
	}
	policy := placement.Policy{Mode: mode, Factor: *factor, Memory: *memory, CoreSplitting: *split}
	res, err := placement.Place(alg, nodes, vms, policy)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s / %s, factor %.2f: %d/%d nodes used, %d VMs unplaced\n",
		alg, mode, *factor, res.UsedNodes(), len(res.Nodes), len(res.Unplaced))
	fmt.Printf("idle power freed by empty nodes: %.0f W — active power: %.0f W\n",
		res.IdlePowerSavingsWatts(), res.ActivePowerWatts())
	for i, n := range res.Nodes {
		if len(n.VMs) == 0 {
			continue
		}
		byTpl := map[string]int{}
		for _, v := range n.VMs {
			byTpl[v.Template]++
		}
		var parts []string
		for _, tpl := range []string{"small", "medium", "large"} {
			if c := byTpl[tpl]; c > 0 {
				parts = append(parts, fmt.Sprintf("%d %s", c, tpl))
			}
		}
		fmt.Printf("  node %2d (%s): load %5.1f%%, mem %d/%d GB — %s\n",
			i, n.Spec.Name, 100*n.Load(policy), n.Used().MemoryGB, n.Spec.MemoryGB,
			strings.Join(parts, ", "))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "placement:", err)
	os.Exit(1)
}

func parseNodes(s string) ([]placement.NodeSpec, error) {
	var out []placement.NodeSpec
	for _, part := range strings.Split(s, ",") {
		kind, count, err := parseKindCount(part)
		if err != nil {
			return nil, err
		}
		var spec placement.NodeSpec
		switch kind {
		case "chetemi":
			spec = placement.NodeSpec{Name: "chetemi", Cores: 40, MaxFreqMHz: 2400,
				MemoryGB: 256, IdleWatts: 97, MaxWatts: 220}
		case "chiclet":
			spec = placement.NodeSpec{Name: "chiclet", Cores: 64, MaxFreqMHz: 2400,
				MemoryGB: 128, IdleWatts: 110, MaxWatts: 190}
		default:
			return nil, fmt.Errorf("unknown node kind %q", kind)
		}
		for i := 0; i < count; i++ {
			out = append(out, spec)
		}
	}
	return out, nil
}

func parseVMs(s string) ([]placement.VMSpec, error) {
	var out []placement.VMSpec
	for _, part := range strings.Split(s, ",") {
		kind, count, err := parseKindCount(part)
		if err != nil {
			return nil, err
		}
		var spec placement.VMSpec
		switch kind {
		case "small":
			spec = placement.VMSpec{Template: "small", VCPUs: 2, FreqMHz: 500, MemoryGB: 2}
		case "medium":
			spec = placement.VMSpec{Template: "medium", VCPUs: 4, FreqMHz: 1200, MemoryGB: 4}
		case "large":
			spec = placement.VMSpec{Template: "large", VCPUs: 4, FreqMHz: 1800, MemoryGB: 8}
		default:
			return nil, fmt.Errorf("unknown VM kind %q", kind)
		}
		for i := 0; i < count; i++ {
			v := spec
			v.Name = fmt.Sprintf("%s-%03d", kind, i)
			out = append(out, v)
		}
	}
	return out, nil
}

func parseKindCount(part string) (string, int, error) {
	bits := strings.Split(strings.TrimSpace(part), ":")
	if len(bits) != 2 {
		return "", 0, fmt.Errorf("malformed %q (want kind:count)", part)
	}
	n, err := strconv.Atoi(bits[1])
	if err != nil || n <= 0 {
		return "", 0, fmt.Errorf("bad count in %q", part)
	}
	return bits[0], n, nil
}
