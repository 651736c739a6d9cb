package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"

	"vfreq/internal/vm"
)

// Input generators. Each is a pure function of the seed (and of sizes
// that are constants of the workload): the product code only ever sees
// what they return.

// inputs is what one pass generates, once, before its first set-up: the
// generators' time is in no timed interval and their memory is in the
// heap baseline heap_mb subtracts.
type inputs struct {
	levels [][]float64    // node_dynamic, node_linux_files: demand of VM i in period k
	churn  *churnSchedule // cluster_churn
	digest uint64
}

func phaseInputs(seed int64, vms, periods int) inputs {
	levels := genPhases(seed, vms, periods)
	return inputs{levels: levels, digest: phasesDigest(levels)}
}

func churnInputs(seed int64, periods int) inputs {
	s := genChurn(seed, periods)
	return inputs{churn: &s, digest: s.digest()}
}

// vmDef is one VM of a node workload.
type vmDef struct {
	name string
	tpl  vm.Template
}

// tplCount is n instances of one template.
type tplCount struct {
	tpl vm.Template
	n   int
}

// mix expands template counts into named VMs, in template order.
func mix(parts ...tplCount) []vmDef {
	var out []vmDef
	for _, p := range parts {
		for k := 0; k < p.n; k++ {
			out = append(out, vmDef{name: fmt.Sprintf("%s-%02d", p.tpl.Name, k), tpl: p.tpl})
		}
	}
	return out
}

// tableII is the paper's Table II mix: 20 small + 10 large, 80 vCPUs.
func tableII() []vmDef { return mix(tplCount{vm.Small(), 20}, tplCount{vm.Large(), 10}) }

// tableV is the paper's Table V mix: 14 small + 8 medium + 6 large, 84 vCPUs.
func tableV() []vmDef {
	return mix(tplCount{vm.Small(), 14}, tplCount{vm.Medium(), 8}, tplCount{vm.Large(), 6})
}

// Demand phases of a VM. All vCPUs of a VM share the phase, as the
// threads of one guest application do.
const (
	phaseIdle = iota
	phasePartial
	phaseSaturated

	// switchProb is the per-period probability that a VM leaves its phase.
	switchProb = 0.05
	idleLevel  = 0.01
)

// genPhases returns, for each of n VMs, the demand level (share of one
// core each vCPU wants) of every period: a three-state Markov chain that
// leaves its state with switchProb per period, picks one of the two
// other states uniformly, and draws a partial level uniformly from
// [0.2, 0.8] when it enters the partial phase.
func genPhases(seed int64, n, periods int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		levels := make([]float64, periods)
		phase := rng.Intn(3)
		level := phaseLevel(rng, phase)
		for k := range levels {
			if rng.Float64() < switchProb {
				phase = (phase + 1 + rng.Intn(2)) % 3
				level = phaseLevel(rng, phase)
			}
			levels[k] = level
		}
		out[i] = levels
	}
	return out
}

func phaseLevel(rng *rand.Rand, phase int) float64 {
	switch phase {
	case phaseIdle:
		return idleLevel
	case phasePartial:
		return 0.2 + 0.6*rng.Float64()
	}
	return 1
}

// Churn operations.
const (
	opDeploy = iota
	opUndeploy
	opMigrate
	opResize
	opRebalance
	opBlackoutOn
	opBlackoutOff
)

// churnOp is one control-plane call of the churn schedule. vm indexes
// the schedule's VM name space ("c<vm>"); tpl is the template of a
// deploy; pick selects a node (a migrate target, or the k-th used node
// for a blackout).
type churnOp struct {
	kind int
	vm   int
	tpl  int // index into churnTemplates
	pick int
}

var churnTemplates = []vm.Template{vm.Small(), vm.Medium(), vm.Large()}

// resizeTo is the template a Resize moves a VM to: medium and large swap
// (a frequency change at 4 vCPUs). A resize that changes the vCPU count
// is left out on purpose: cluster.Resize does not update the sources it
// keeps for the VM, so a later Migrate of that VM fails — a defect this
// benchmark found and a later issue fixes; the workload must not fail.
func resizeTo(tpl vm.Template) vm.Template {
	if tpl.Name == "medium" {
		return vm.Large()
	}
	return vm.Medium()
}

const (
	churnNodes        = 16
	churnInitialVMs   = 96
	churnDeploys      = 4
	churnUndeploys    = 4
	churnMigrates     = 2
	churnRebalance    = 10  // every this many periods
	churnResize       = 5   // every this many periods
	churnBlackout     = 250 // every this many periods
	churnBlackoutHold = 4   // periods a blackout lasts
)

// churnSchedule is the whole input of cluster_churn: the VMs deployed in
// set-up and the operations of every period (warm-up periods included).
type churnSchedule struct {
	initial []churnOp
	periods [][]churnOp
	names   []string // the VM name space, by churnOp.vm
}

// genChurn builds the schedule. The generator tracks which VMs it has
// deployed and not undeployed so that undeploy, migrate and resize name
// live VMs; it assumes every deploy is admitted, and the driver skips
// the later operations on a VM the cluster refused.
func genChurn(seed int64, periods int) churnSchedule {
	rng := rand.New(rand.NewSource(seed))
	var s churnSchedule
	var live []int
	resizable := map[int]bool{} // VMs deployed with 4 vCPUs
	deploy := func() churnOp {
		v := len(s.names)
		op := churnOp{kind: opDeploy, vm: v, tpl: rng.Intn(len(churnTemplates))}
		live = append(live, v)
		resizable[v] = churnTemplates[op.tpl].VCPUs == 4
		s.names = append(s.names, fmt.Sprintf("c%d", v))
		return op
	}
	for i := 0; i < churnInitialVMs; i++ {
		s.initial = append(s.initial, deploy())
	}
	s.periods = make([][]churnOp, periods)
	for k := range s.periods {
		var ops []churnOp
		// The blackout phase is offset so the first one falls early in
		// the timed section, whatever its length.
		switch (k + churnBlackout - 30) % churnBlackout {
		case 0:
			ops = append(ops, churnOp{kind: opBlackoutOn, pick: rng.Intn(churnNodes)})
		case churnBlackoutHold:
			ops = append(ops, churnOp{kind: opBlackoutOff})
		}
		for i := 0; i < churnDeploys; i++ {
			ops = append(ops, deploy())
		}
		for i := 0; i < churnUndeploys && len(live) > 0; i++ {
			j := rng.Intn(len(live))
			ops = append(ops, churnOp{kind: opUndeploy, vm: live[j]})
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		for i := 0; i < churnMigrates && len(live) > 0; i++ {
			ops = append(ops, churnOp{kind: opMigrate, vm: live[rng.Intn(len(live))], pick: rng.Intn(churnNodes)})
		}
		if k%churnResize == 0 && len(live) > 0 {
			// The first resizable VM at or after a random position.
			at := rng.Intn(len(live))
			for i := range live {
				if v := live[(at+i)%len(live)]; resizable[v] {
					ops = append(ops, churnOp{kind: opResize, vm: v})
					break
				}
			}
		}
		if k%churnRebalance == 0 {
			ops = append(ops, churnOp{kind: opRebalance})
		}
		s.periods[k] = ops
	}
	return s
}

// digest is a 64-bit FNV-1a over integers and floats, used both for the
// input digests (same seed → same inputs) and for the end-of-run state
// digests (same commit and seed → same simulated state).
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) int(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.h.Write(b[:])
}

func (d digest) float(v float64) { d.int(int64(math.Float64bits(v))) }

func (d digest) str(s string) {
	d.h.Write([]byte(s))
	d.h.Write([]byte{0})
}

func (d digest) sum() uint64 { return d.h.Sum64() }

func phasesDigest(p [][]float64) uint64 {
	d := newDigest()
	for _, levels := range p {
		for _, l := range levels {
			d.float(l)
		}
	}
	return d.sum()
}

func (s churnSchedule) digest() uint64 {
	d := newDigest()
	put := func(ops []churnOp) {
		for _, op := range ops {
			d.int(int64(op.kind))
			d.int(int64(op.vm))
			d.int(int64(op.tpl))
			d.int(int64(op.pick))
		}
		d.int(-1)
	}
	put(s.initial)
	for _, ops := range s.periods {
		put(ops)
	}
	return d.sum()
}
