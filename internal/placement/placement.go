// Package placement implements the VM placement algorithms of §III-C and
// §IV-C of the paper: FirstFit/BestFit/WorstFit packers under three CPU
// constraint modes — the classic vCPU-count constraint, the same with a
// consolidation factor, and the paper's virtual-frequency ("core
// splitting") constraint of Eq. 7:
//
//	Σ_{i∈I_n} k_i^vCPU · F_i  ≤  k_n^CPU · F_n^MAX
//
// An optional stricter per-core splitting mode additionally requires an
// integral assignment of vCPUs to cores such that each core's virtual
// frequencies sum below F_MAX.
package placement

import (
	"fmt"
	"slices"
	"sort"
)

// NodeSpec describes one physical machine available to the placer.
type NodeSpec struct {
	Name       string
	Cores      int
	MaxFreqMHz int64
	MemoryGB   int
	IdleWatts  float64
	MaxWatts   float64
}

// Validate checks the node spec.
func (n NodeSpec) Validate() error {
	if n.Cores <= 0 || n.MaxFreqMHz <= 0 || n.MemoryGB <= 0 {
		return fmt.Errorf("placement: invalid node %q", n.Name)
	}
	if n.IdleWatts < 0 || n.MaxWatts < n.IdleWatts {
		return fmt.Errorf("placement: invalid power range for %q", n.Name)
	}
	return nil
}

// VMSpec describes one VM to place.
type VMSpec struct {
	Name     string
	Template string
	VCPUs    int
	FreqMHz  int64
	MemoryGB int
}

// Validate checks the VM spec.
func (v VMSpec) Validate() error {
	if v.VCPUs <= 0 || v.FreqMHz <= 0 || v.MemoryGB < 0 {
		return fmt.Errorf("placement: invalid VM %q", v.Name)
	}
	return nil
}

// ConstraintMode selects the CPU feasibility rule.
type ConstraintMode int

const (
	// CoreCount is the classic rule: Σ vCPUs ≤ cores × factor.
	CoreCount ConstraintMode = iota
	// VirtualFrequency is Eq. 7: Σ vCPU·F ≤ cores·F_MAX × factor.
	VirtualFrequency
)

// String implements fmt.Stringer.
func (m ConstraintMode) String() string {
	switch m {
	case CoreCount:
		return "core-count"
	case VirtualFrequency:
		return "virtual-frequency"
	}
	return fmt.Sprintf("ConstraintMode(%d)", int(m))
}

// Policy configures a placement run.
type Policy struct {
	Mode ConstraintMode
	// Factor is the consolidation factor applied to the CPU capacity
	// (1.0 = none; the paper compares against 1.8).
	Factor float64
	// Memory enforces node memory capacity.
	Memory bool
	// CoreSplitting, with VirtualFrequency, additionally requires an
	// integral vCPU→core assignment where each core's Σ F ≤ F_MAX.
	CoreSplitting bool
}

// Validate checks the policy.
func (p Policy) Validate() error {
	if p.Factor <= 0 {
		return fmt.Errorf("placement: factor must be positive")
	}
	if p.CoreSplitting && p.Mode != VirtualFrequency {
		return fmt.Errorf("placement: core splitting requires the virtual-frequency mode")
	}
	return nil
}

// Load is a demand in the three quantities the admission constraint
// sums: one VM's, a node's placed total, or (NodeSpec.Capacity) what an
// empty node offers.
type Load struct {
	VCPUs    int
	FreqMHz  int64 // Σ vCPU·F
	MemoryGB int
}

// Load returns the VM's demand. (Pointer receivers here and on Capacity:
// inlined into Fits, a value receiver copies the whole spec per call,
// which doubled BenchmarkBestFitEq7Large.)
func (v *VMSpec) Load() Load {
	return Load{v.VCPUs, int64(v.VCPUs) * v.FreqMHz, v.MemoryGB}
}

// Capacity returns what the empty node offers, before any consolidation
// factor: its cores, cores·F_MAX (the right side of Eq. 7) and memory.
func (n *NodeSpec) Capacity() Load {
	return Load{n.Cores, int64(n.Cores) * n.MaxFreqMHz, n.MemoryGB}
}

// Add returns l + o.
func (l Load) Add(o Load) Load {
	return Load{l.VCPUs + o.VCPUs, l.FreqMHz + o.FreqMHz, l.MemoryGB + o.MemoryGB}
}

// Sub returns l − o.
func (l Load) Sub(o Load) Load {
	return Load{l.VCPUs - o.VCPUs, l.FreqMHz - o.FreqMHz, l.MemoryGB - o.MemoryGB}
}

// CPU returns l's CPU term in the policy's unit: a vCPU count under
// CoreCount, Σ vCPU·F in MHz (the two sides of Eq. 7) under
// VirtualFrequency. For the integer demands and capacities in play the
// float arithmetic is exact.
func (p Policy) CPU(l Load) float64 {
	if p.Mode == CoreCount {
		return float64(l.VCPUs)
	}
	return float64(l.FreqMHz)
}

// Admits is the admission constraint, shared by the offline packer and
// the cluster's online admission: whether a node of the given capacity
// may carry the total load under the policy's CPU factor and memory
// bound.
func (p Policy) Admits(capacity, total Load) bool {
	if p.Memory && total.MemoryGB > capacity.MemoryGB {
		return false
	}
	return p.CPU(total) <= p.CPU(capacity)*p.Factor
}

// Attainable is the admission rule's frequency half: whether a VM whose
// vCPUs run at freqMHz may join a node whose cores reach at most maxMHz.
// Eq. 7 presumes every vCPU's frequency is attainable on the node;
// CoreCount ignores frequencies altogether.
func (p Policy) Attainable(freqMHz, maxMHz int64) bool {
	return p.Mode != VirtualFrequency || freqMHz <= maxMHz
}

// Headroom returns the free CPU capacity in the policy's unit, for the
// BestFit/WorstFit choice: a load of CPU demand d passes the CPU half of
// Admits exactly when d ≤ Headroom.
func (p Policy) Headroom(capacity, used Load) float64 {
	return p.CPU(capacity)*p.Factor - p.CPU(used)
}

// Node is a bin during placement.
type Node struct {
	Spec NodeSpec
	VMs  []VMSpec

	used     Load
	coreFreq []int64 // per-core Σ F when core splitting
}

// Used returns the total load of the placed VMs.
func (n *Node) Used() Load { return n.used }

// Remaining returns the free CPU capacity in the policy's unit.
func (n *Node) Remaining(p Policy) float64 { return p.Headroom(n.Spec.Capacity(), n.used) }

// Load returns the CPU load fraction under the policy.
func (n *Node) Load(p Policy) float64 {
	c := p.Headroom(n.Spec.Capacity(), Load{}) // the empty node's: capacity × factor
	if c == 0 {
		return 0
	}
	return p.CPU(n.used) / c
}

// Fits reports whether v can be placed on n under p.
func (n *Node) Fits(v VMSpec, p Policy) bool {
	if !p.Attainable(v.FreqMHz, n.Spec.MaxFreqMHz) || !p.Admits(n.Spec.Capacity(), n.used.Add(v.Load())) {
		return false
	}
	return !(p.Mode == VirtualFrequency && p.CoreSplitting) || spreadVCPUs(slices.Clone(n.cores()), v, n.Spec.MaxFreqMHz)
}

// Place adds v to n. Callers must check Fits first.
func (n *Node) Place(v VMSpec, p Policy) {
	n.VMs = append(n.VMs, v)
	n.used = n.used.Add(v.Load())
	if p.CoreSplitting && !spreadVCPUs(n.cores(), v, n.Spec.MaxFreqMHz) {
		panic("placement: Place called without Fits")
	}
}

// cores returns the per-core Σ F, allocated on first use.
func (n *Node) cores() []int64 {
	if n.coreFreq == nil {
		n.coreFreq = make([]int64, n.Spec.Cores)
	}
	return n.coreFreq
}

// spreadVCPUs adds each of v's vCPUs to the emptiest core with room for
// its frequency, the lowest index on ties (worst fit, which keeps headroom
// spread for later VMs), and reports whether every vCPU found a core.
// cores is left partly updated when one did not.
func spreadVCPUs(cores []int64, v VMSpec, maxMHz int64) bool {
	for placed := 0; placed < v.VCPUs; placed++ {
		best := -1
		for c := range cores {
			if cores[c]+v.FreqMHz <= maxMHz && (best == -1 || cores[c] < cores[best]) {
				best = c
			}
		}
		if best == -1 {
			return false
		}
		cores[best] += v.FreqMHz
	}
	return true
}

// Result is the outcome of a placement run.
type Result struct {
	Policy   Policy
	Nodes    []*Node
	Unplaced []VMSpec
}

// UsedNodes counts nodes hosting at least one VM.
func (r *Result) UsedNodes() int {
	n := 0
	for _, node := range r.Nodes {
		if len(node.VMs) > 0 {
			n++
		}
	}
	return n
}

// MaxPerNode returns, over nodes of the named spec, the largest number of
// VMs of the given template — the statistic the paper quotes ("28 large
// VMs on a chiclet").
func (r *Result) MaxPerNode(nodeName, template string) int {
	max := 0
	for _, node := range r.Nodes {
		if node.Spec.Name != nodeName {
			continue
		}
		count := 0
		for _, v := range node.VMs {
			if v.Template == template {
				count++
			}
		}
		if count > max {
			max = count
		}
	}
	return max
}

// IdlePowerSavingsWatts returns the idle power of the nodes left empty —
// the energy the provider can save by shutting them down.
func (r *Result) IdlePowerSavingsWatts() float64 {
	var w float64
	for _, node := range r.Nodes {
		if len(node.VMs) == 0 {
			w += node.Spec.IdleWatts
		}
	}
	return w
}

// ActivePowerWatts estimates the power of the used nodes with the linear
// model at their current CPU load.
func (r *Result) ActivePowerWatts() float64 {
	var w float64
	for _, node := range r.Nodes {
		if len(node.VMs) == 0 {
			continue
		}
		load := node.Load(r.Policy)
		if load > 1 {
			load = 1
		}
		w += node.Spec.IdleWatts + (node.Spec.MaxWatts-node.Spec.IdleWatts)*load
	}
	return w
}

// Algorithm selects the packing heuristic.
type Algorithm int

const (
	FirstFit Algorithm = iota
	BestFit
	WorstFit
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case FirstFit:
		return "first-fit"
	case BestFit:
		return "best-fit"
	case WorstFit:
		return "worst-fit"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Validate rejects an algorithm other than FirstFit, BestFit or WorstFit.
func (a Algorithm) Validate() error {
	if a < FirstFit || a > WorstFit {
		return fmt.Errorf("placement: unknown algorithm %v", a)
	}
	return nil
}

// Choose is the node-choice rule of every packer here, offline and
// online: among the nodes 0..n-1 for which fits holds, FirstFit takes the
// first, BestFit the one with the least remaining capacity and WorstFit
// the one with the most, the lowest index on ties. It returns -1 when no
// node fits, and an error for an unknown algorithm before consulting any
// node. remaining is asked only about fitting nodes, once each.
func Choose(alg Algorithm, n int, fits func(int) bool, remaining func(int) float64) (int, error) {
	if err := alg.Validate(); err != nil {
		return -1, err
	}
	chosen, best := -1, 0.0
	for i := 0; i < n; i++ {
		if !fits(i) {
			continue
		}
		if alg == FirstFit {
			return i, nil
		}
		if r := remaining(i); chosen == -1 || (alg == BestFit && r < best) || (alg == WorstFit && r > best) {
			chosen, best = i, r
		}
	}
	return chosen, nil
}

// Place runs the chosen algorithm: VMs are processed in the given order
// and each goes to the node Choose picks — the first feasible (FirstFit),
// the fullest (BestFit) or the emptiest (WorstFit).
func Place(alg Algorithm, nodes []NodeSpec, vms []VMSpec, p Policy) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := alg.Validate(); err != nil {
		return nil, err
	}
	res := &Result{Policy: p, Nodes: make([]*Node, len(nodes))}
	for i, spec := range nodes {
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		res.Nodes[i] = &Node{Spec: spec}
	}
	for _, v := range vms {
		if err := v.Validate(); err != nil {
			return nil, err
		}
		chosen, _ := Choose(alg, len(res.Nodes),
			func(i int) bool { return res.Nodes[i].Fits(v, p) },
			func(i int) float64 { return res.Nodes[i].Remaining(p) })
		if chosen == -1 {
			res.Unplaced = append(res.Unplaced, v)
			continue
		}
		res.Nodes[chosen].Place(v, p)
	}
	return res, nil
}

// SortDecreasing orders VMs by descending CPU demand (vCPU·F, then vCPU
// count), the usual preprocessing for fit-decreasing packers. The sort is
// stable so equal VMs keep their input order.
func SortDecreasing(vms []VMSpec) {
	sort.SliceStable(vms, func(i, j int) bool {
		di, dj := vms[i].Load().FreqMHz, vms[j].Load().FreqMHz
		if di != dj {
			return di > dj
		}
		return vms[i].VCPUs > vms[j].VCPUs
	})
}
