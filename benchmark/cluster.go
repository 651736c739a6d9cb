package main

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"vfreq/internal/cluster"
	"vfreq/internal/core"
	"vfreq/internal/host"
	"vfreq/internal/metrics"
	"vfreq/internal/placement"
	"vfreq/internal/platform"
	"vfreq/internal/vm"
	"vfreq/internal/workload"
)

const (
	fleetNodes = 16
	// blackoutGrace is how many periods after a blackout lifts its
	// after-effects (evacuation, recovery accounting) may still show.
	blackoutGrace = 3
)

var errBlackout = errors.New("benchmark: planned node blackout")

// clusterVM is the benchmark's record of one deployed VM: where the
// cluster put it, and what the SLA sampling needs.
type clusterVM struct {
	name     string
	tpl      vm.Template
	node     int
	inst     *vm.Instance
	cycles   []int64
	resident int // periods stepped on this node in this shape
}

// clusterRun drives a 16-node cluster: cluster_fleet (no schedule) and
// cluster_churn (sched is the seeded operation list).
type clusterRun struct {
	p     *pass
	cl    *cluster.Cluster
	cfg   core.Config
	reg   *metrics.Registry
	sched *churnSchedule

	vms     map[string]*clusterVM
	refused map[string]bool
	usedMHz []int64 // per node, Σ vCPU·F of the VMs the benchmark tracks there
	usedMem []int   // per node, Σ memory of the same

	blackoutNode  int // node under a planned blackout, -1 for none
	plannedUntil  int // last period the blackout's after-effects are planned
	deploys       int64
	admitted      int64
	admitNs       []int64
	migrateNs     []int64
	evacuated     int64
	stranded      int64
	placeNs       int64
	lastMigration int
}

func chetemis(n int) []host.Spec {
	specs := make([]host.Spec, n)
	for i := range specs {
		specs[i] = host.Chetemi()
		specs[i].Name = fmt.Sprintf("chetemi-%d", i)
	}
	return specs
}

func busy(n int) []workload.Source {
	srcs := make([]workload.Source, n)
	for i := range srcs {
		srcs[i] = workload.Busy()
	}
	return srcs
}

func newClusterRun(p *pass, alg placement.Algorithm, failThreshold int) (*clusterRun, error) {
	cfg := cluster.Config{Controller: core.DefaultConfig(), Algorithm: alg, FailThreshold: failThreshold}
	if p.tr != nil {
		// Serial stepping, so Cluster.Step's wall time is the sum of
		// its nodes' and the spans nest.
		cfg.StepWorkers = 1
		cfg.Controller.MonitorWorkers = 1
	}
	cl, err := cluster.New(chetemis(fleetNodes), cfg)
	if err != nil {
		return nil, err
	}
	return &clusterRun{p: p, cl: cl, cfg: cfg.Controller, vms: map[string]*clusterVM{},
		refused: map[string]bool{}, usedMHz: make([]int64, fleetNodes), usedMem: make([]int, fleetNodes),
		blackoutNode: -1, plannedUntil: -1}, nil
}

// buildFleet deploys 320 small then 160 large under WorstFit, which
// round-robins equal nodes: every node ends up with the Table II mix.
func buildFleet(p *pass) (runner, error) {
	r, err := newClusterRun(p, placement.WorstFit, 0)
	if err != nil {
		return nil, err
	}
	r.reg = metrics.NewRegistry()
	r.cl.ArmMetrics(r.reg)
	for _, part := range []tplCount{{vm.Small(), 20 * fleetNodes}, {vm.Large(), 10 * fleetNodes}} {
		for k := 0; k < part.n; k++ {
			name := fmt.Sprintf("%s-%03d", part.tpl.Name, k)
			if !r.deploy(name, part.tpl) {
				r.cl.Close()
				return nil, fmt.Errorf("fleet deploy of %s refused", name)
			}
		}
	}
	for _, n := range r.cl.Nodes() {
		if got := len(n.VMs()); got != 30 {
			r.cl.Close()
			return nil, fmt.Errorf("node %d carries %d VMs, want the Table II mix of 30", n.Index, got)
		}
	}
	return r, nil
}

func buildChurn(p *pass) (runner, error) {
	r, err := newClusterRun(p, placement.BestFit, 2)
	if err != nil {
		return nil, err
	}
	r.sched = p.in.churn
	r.placeArrivals()
	for _, op := range r.sched.initial {
		r.apply(op)
	}
	return r, nil
}

// placeArrivals runs the offline packer over the schedule's whole
// arrival list against empty nodes, once: the cross-check for the
// admission latency the cluster shows online.
func (r *clusterRun) placeArrivals() {
	var nodes []placement.NodeSpec
	for _, s := range chetemis(fleetNodes) {
		nodes = append(nodes, placement.NodeSpec{Name: s.Name, Cores: s.Cores, MaxFreqMHz: s.MaxMHz,
			MemoryGB: s.MemoryGB, IdleWatts: s.Power.IdleWatts, MaxWatts: s.Power.MaxWatts})
	}
	var arrivals []placement.VMSpec
	add := func(ops []churnOp) {
		for _, op := range ops {
			if op.kind == opDeploy {
				t := churnTemplates[op.tpl]
				arrivals = append(arrivals, placement.VMSpec{Name: r.sched.names[op.vm], Template: t.Name,
					VCPUs: t.VCPUs, FreqMHz: t.FreqMHz, MemoryGB: t.MemoryGB})
			}
		}
	}
	add(r.sched.initial)
	for _, ops := range r.sched.periods {
		add(ops)
	}
	policy := placement.Policy{Mode: placement.VirtualFrequency, Factor: 1, Memory: true}
	t0 := time.Now()
	_, err := placement.Place(placement.BestFit, nodes, arrivals, policy)
	r.placeNs = int64(time.Since(t0))
	if err != nil {
		r.p.fail("placement.Place: %v", err)
	}
}

// fits is the benchmark's own statement of the admission constraint
// (Eq. 7 plus memory) for tpl on node idx, from its own records — the
// reference the cluster's accept/refuse decisions are checked against.
// old is the template tpl replaces on that node (zero for none).
func (r *clusterRun) fits(idx int, tpl, old vm.Template) bool {
	spec := r.cl.Nodes()[idx].Spec()
	mhz := r.usedMHz[idx] + int64(tpl.VCPUs)*tpl.FreqMHz - int64(old.VCPUs)*old.FreqMHz
	mem := r.usedMem[idx] + tpl.MemoryGB - old.MemoryGB
	return mhz <= int64(spec.Cores)*spec.MaxMHz && mem <= spec.MemoryGB
}

// account adds (sign +1) or removes (sign -1) v's demand on its node.
func (r *clusterRun) account(v *clusterVM, sign int) {
	r.usedMHz[v.node] += int64(sign) * int64(v.tpl.VCPUs) * v.tpl.FreqMHz
	r.usedMem[v.node] += sign * v.tpl.MemoryGB
}

// planned reports whether node idx is inside a planned blackout window,
// where operations touching it may fail without counting as failures.
func (r *clusterRun) planned(idx int) bool {
	return idx >= 0 && idx == r.blackoutNode
}

func (r *clusterRun) track(name string, tpl vm.Template, node int) {
	v := &clusterVM{name: name, tpl: tpl, node: node}
	r.vms[name] = v
	r.account(v, +1)
	r.bind(v)
}

// bind refreshes v's instance handle after it was created, moved or resized.
func (r *clusterRun) bind(v *clusterVM) {
	v.inst = r.cl.Nodes()[v.node].Manager.Get(v.name)
	v.cycles = make([]int64, v.tpl.VCPUs)
	v.resident = 0
}

// deploy admits one VM and checks the decision against fits.
func (r *clusterRun) deploy(name string, tpl vm.Template) bool {
	p := r.p
	expect := false
	for _, n := range r.cl.Nodes() {
		if !n.Failed && r.fits(n.Index, tpl, vm.Template{}) {
			expect = true
			break
		}
	}
	var node int
	var err error
	srcs := busy(tpl.VCPUs)
	ns := p.span(spDeploy, func() { node, err = r.cl.Deploy(name, tpl, srcs) })
	if p.recording {
		p.attempted++
		r.deploys++
		r.admitNs = append(r.admitNs, ns)
	}
	if err != nil {
		r.refused[name] = true
		if expect && r.blackoutNode < 0 {
			p.fail("deploy %s: %v, though a node fits it", name, err)
		}
		return false
	}
	if p.recording {
		r.admitted++
	}
	if !expect {
		p.fail("deploy %s admitted on node %d, though no node fits it", name, node)
	}
	r.track(name, tpl, node)
	return true
}

// apply runs one scheduled operation. Operations on a VM the cluster
// refused earlier are skipped: the VM is reported refused, not lost.
func (r *clusterRun) apply(op churnOp) {
	p := r.p
	var name string
	if op.kind <= opResize {
		name = r.sched.names[op.vm]
		if op.kind != opDeploy && r.vms[name] == nil {
			return
		}
	}
	switch op.kind {
	case opDeploy:
		r.deploy(name, churnTemplates[op.tpl])
	case opUndeploy:
		v := r.vms[name]
		var err error
		p.span(spUndeploy, func() { err = r.cl.Undeploy(name) })
		if p.recording {
			p.attempted++
		}
		if err != nil {
			if !r.planned(v.node) {
				p.fail("undeploy %s: %v", name, err)
			}
			return
		}
		r.account(v, -1)
		delete(r.vms, name)
	case opMigrate:
		v := r.vms[name]
		expect := op.pick != v.node && r.fits(op.pick, v.tpl, vm.Template{})
		var moved bool
		var err error
		ns := p.span(spMigrate, func() { moved, err = r.cl.Migrate(name, op.pick) })
		if p.recording {
			p.attempted++
		}
		if r.planned(v.node) || r.planned(op.pick) {
			r.resync()
			return
		}
		if moved != expect {
			p.fail("migrate %s %d→%d: moved=%v (%v), want %v", name, v.node, op.pick, moved, err, expect)
		}
		if moved {
			if p.recording {
				r.migrateNs = append(r.migrateNs, ns)
			}
			r.account(v, -1)
			v.node = op.pick
			r.account(v, +1)
			r.bind(v)
		}
	case opResize:
		v := r.vms[name]
		tpl := resizeTo(v.tpl)
		expect := r.fits(v.node, tpl, v.tpl)
		var err error
		p.span(spResize, func() { err = r.cl.Resize(name, tpl, nil) })
		if p.recording {
			p.attempted++
		}
		if r.planned(v.node) {
			r.resync()
			return
		}
		if (err == nil) != expect {
			p.fail("resize %s to %s on node %d: %v, want accepted=%v", name, tpl.Name, v.node, err, expect)
		}
		if err == nil {
			r.account(v, -1)
			v.tpl = tpl
			r.account(v, +1)
			r.bind(v)
		}
	case opRebalance:
		var err error
		p.span(spRebalance, func() { _, err = r.cl.Rebalance() })
		if p.recording {
			p.attempted++
		}
		if err != nil && r.blackoutNode < 0 {
			p.fail("rebalance: %v", err)
		}
	case opBlackoutOn:
		// The pick-th node that hosts VMs, so the blackout forces an
		// evacuation.
		var used []int
		for _, n := range r.cl.Nodes() {
			if len(n.VMs()) > 0 {
				used = append(used, n.Index)
			}
		}
		if len(used) == 0 {
			return
		}
		r.blackoutNode = used[op.pick%len(used)]
		r.cl.Nodes()[r.blackoutNode].Machine.FailReads("machine-", errBlackout, -1)
	case opBlackoutOff:
		if r.blackoutNode >= 0 {
			r.cl.Nodes()[r.blackoutNode].Machine.ClearFileFaults()
			r.blackoutNode = -1
		}
	}
}

// resync re-reads every tracked VM's node and template from the cluster,
// after something may have changed them behind the benchmark's back: an
// evacuation, or an operation during a blackout, whose outcome the
// reference model does not predict.
func (r *clusterRun) resync() {
	for name, v := range r.vms {
		node := r.cl.Locate(name)
		var inst *vm.Instance
		if node >= 0 {
			inst = r.cl.Nodes()[node].Manager.Get(name)
		}
		if inst == nil {
			r.p.fail("VM %s lost: located on node %d, provisioned nowhere", name, node)
			r.account(v, -1)
			delete(r.vms, name)
			continue
		}
		if node != v.node || inst != v.inst || inst.Template() != v.tpl {
			r.account(v, -1)
			v.node, v.tpl = node, inst.Template()
			r.account(v, +1)
			r.bind(v)
		}
	}
	r.lastMigration = r.cl.Migrations()
}

func (r *clusterRun) period(k int) {
	p := r.p
	root := p.beginPeriod()
	if r.sched != nil {
		for _, op := range r.sched.periods[k] {
			r.apply(op)
		}
	}
	if r.blackoutNode >= 0 {
		r.plannedUntil = k + blackoutGrace
	}
	for _, v := range r.vms {
		for j := range v.cycles {
			v.cycles[j] = v.inst.VCPUCycles(j)
		}
	}
	var err error
	stepNs := p.span(spClusterStep, func() { err = r.cl.Step() })
	var health cluster.Health
	p.span(spHealth, func() { health = r.cl.Health() })
	p.endPeriod(root)

	planned := k <= r.plannedUntil
	if r.cl.Migrations() != r.lastMigration {
		r.resync() // the step evacuated VMs
	}
	for _, v := range r.vms {
		// Every cluster VM is busy: it demands for as long as it has run
		// on its node in its shape.
		if p.slaDue(&v.resident, true) {
			p.slaCount(v.inst.MeanVCPUFreqMHz(v.cycles, r.cfg.PeriodUs), v.tpl.FreqMHz)
		}
	}
	if !p.recording {
		return
	}
	p.recordStep(stepNs, stepNs, len(r.cl.Nodes()))
	p.usedNodes += int64(r.cl.UsedNodes())
	r.evacuated += int64(health.EvacuatedVMs)
	r.stranded += int64(health.StrandedVMs)
	p.attempted++
	if err != nil && !planned {
		p.fail("cluster step %d: %v", k, err)
	}
	for _, n := range r.cl.Nodes() {
		p.addTimings(n.LastReport.Timings)
		p.addReport(&n.LastReport, planned)
	}
}

func (r *clusterRun) finish() {
	p := r.p
	settled := r.plannedUntil < warmup+p.periods-1
	for _, n := range r.cl.Nodes() {
		where := fmt.Sprintf("node %d", n.Index)
		if settled {
			checkController(p, n.Ctrl, where)
		}
		for _, st := range n.Ctrl.VMs() {
			p.check(r.cl.Locate(st.Info.Name) == n.Index, "%s controller tracks %s, located on node %d",
				where, st.Info.Name, r.cl.Locate(st.Info.Name))
		}
	}
	if r.sched == nil {
		for _, n := range r.cl.Nodes() {
			checkQuotas(p, n.Ctrl, platform.NewSim(n.Manager), fmt.Sprintf("node %d", n.Index))
		}
	}
	// Every VM of the schedule is on exactly one node, or was refused.
	for name, v := range r.vms {
		hosts := 0
		for _, n := range r.cl.Nodes() {
			if n.Manager.Get(name) != nil {
				hosts++
			}
		}
		p.check(hosts == 1 && r.cl.Locate(name) == v.node,
			"VM %s provisioned on %d nodes, located on %d, expected on %d", name, hosts, r.cl.Locate(name), v.node)
	}
	for name := range r.refused {
		p.check(r.cl.Locate(name) == -1, "refused VM %s is located on node %d", name, r.cl.Locate(name))
	}

	d := newDigest()
	names := make([]string, 0, len(r.vms))
	for name := range r.vms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := r.vms[name]
		d.str(name)
		d.int(int64(v.node))
		for j := 0; j < v.tpl.VCPUs; j++ {
			d.int(v.inst.VCPUCycles(j))
		}
	}
	for _, n := range r.cl.Nodes() {
		vms := n.Ctrl.VMs()
		sort.Slice(vms, func(i, j int) bool { return vms[i].Info.Name < vms[j].Info.Name })
		for _, st := range vms {
			d.str(st.Info.Name)
			d.int(st.CreditUs)
			for _, v := range st.VCPUs {
				d.int(v.CapUs)
			}
		}
	}
	p.stateDigest = d.sum()

	v := p.values
	if r.sched != nil {
		if p.tr == nil {
			slices.Sort(r.admitNs)
			slices.Sort(r.migrateNs)
			v["admit_p50_us"] = us(percentile(r.admitNs, 0.50))
			v["admit_p99_us"] = us(percentile(r.admitNs, 0.99))
			v["migrate_p50_us"] = us(percentile(r.migrateNs, 0.50))
			p.counts["admit_p50_us"] = int64(len(r.admitNs))
			p.counts["admit_p99_us"] = int64(len(r.admitNs))
			p.counts["migrate_p50_us"] = int64(len(r.migrateNs))
		}
		r.admitNs, r.migrateNs = nil, nil // the benchmark's samples are not the program's heap
		stats := r.cl.MigrationStats()
		v["cluster.admit_ratio"] = float64(r.admitted) / float64(r.deploys)
		v["cluster.migrations"] = float64(stats.Committed)
		v["cluster.evacuated"] = float64(r.evacuated)
		v["cluster.stranded"] = float64(r.stranded)
	}
	if p.tr == nil {
		return
	}
	agg := p.tr.aggregate()
	mean := func(name uint8) float64 {
		if agg[name].count == 0 {
			return 0
		}
		return us(agg[name].total) / float64(agg[name].count)
	}
	n := float64(p.periods)
	v["cluster.nonctrl_us"] = us(agg[spClusterStep].total-int64(p.stage.Total)) / n
	v["cluster.health_us"] = mean(spHealth)
	if r.sched != nil {
		v["cluster.deploy_us"] = mean(spDeploy)
		v["cluster.undeploy_us"] = mean(spUndeploy)
		v["cluster.migrate_us"] = mean(spMigrate)
		v["cluster.resize_us"] = mean(spResize)
		v["cluster.rebalance_us"] = mean(spRebalance)
		v["placement.place_us"] = us(r.placeNs)
	}
	if r.reg != nil {
		var text strings.Builder
		t0 := time.Now()
		err := r.reg.WriteText(&text)
		v["metrics.write_text_us"] = us(int64(time.Since(t0)))
		p.check(err == nil, "metrics.WriteText: %v", err)
		series := 0
		for _, line := range strings.Split(text.String(), "\n") {
			if line != "" && !strings.HasPrefix(line, "#") {
				series++
			}
		}
		v["metrics.series"] = float64(series)
	}
}

func (r *clusterRun) close() { r.cl.Close() }
