package main

import (
	"time"

	"vfreq/internal/core"
	"vfreq/internal/host"
	"vfreq/internal/platform"
	"vfreq/internal/vm"
	"vfreq/internal/workload"
)

// SLA definition shared by every workload (and by
// experiments.FreqResult.SLAViolations): a VM is demanding when every
// vCPU has wanted at least slaDemand × its template share for slaWindow
// periods; the SLA is met when the VM's mean vCPU frequency over the
// period is at least slaDelivered × the template frequency.
const (
	slaDemand    = 1.05
	slaDelivered = 0.95
	slaWindow    = 3
)

// snapshotEvery is the period of the checkpoint round trip the traced
// pass of node_dynamic times (outside the timed step).
const snapshotEvery = 100

// nodeSim runs one simulated chetemi under one controller: node_steady
// (levels == nil, every vCPU busy) and node_dynamic (levels[i][k] is the
// demand of VM i in period k).
type nodeSim struct {
	p       *pass
	machine *host.Machine
	mgr     *vm.Manager
	ctrl    *core.Controller
	cfg     core.Config
	insts   []*vm.Instance
	levels  [][]float64

	cycles    [][]int64 // per VM, the vCPU cycle counters before the period
	demanding []int     // per VM, consecutive periods of demand above the template share

	provisionNs, destroyNs int64
	snapNs, restoreNs      int64
	snapBytes, snaps       int64
}

func buildNodeSteady(p *pass) (runner, error) { return buildNodeSim(p, tableII(), nil) }

func buildNodeDynamic(p *pass) (runner, error) { return buildNodeSim(p, tableV(), p.in.levels) }

func buildNodeSim(p *pass, vms []vmDef, levels [][]float64) (runner, error) {
	machine, err := host.New(host.Chetemi())
	if err != nil {
		return nil, err
	}
	mgr, err := vm.NewManager(machine)
	if err != nil {
		return nil, err
	}
	r := &nodeSim{p: p, machine: machine, mgr: mgr, levels: levels, cfg: core.DefaultConfig()}
	for i, d := range vms {
		srcs := make([]workload.Source, d.tpl.VCPUs)
		for j := range srcs {
			if levels == nil {
				srcs[j] = workload.Busy()
			} else {
				srcs[j] = &workload.Trace{Samples: levels[i], StepUs: r.cfg.PeriodUs}
			}
		}
		t0 := time.Now()
		inst, err := mgr.Provision(d.name, d.tpl, srcs)
		r.provisionNs += int64(time.Since(t0))
		if err != nil {
			return nil, err
		}
		r.insts = append(r.insts, inst)
		r.cycles = append(r.cycles, make([]int64, d.tpl.VCPUs))
	}
	r.demanding = make([]int, len(vms))
	sim := platform.NewSim(mgr)
	var h platform.Host = sim
	if p.tr != nil {
		// Serial monitor reads, so the platform spans nest in the step.
		r.cfg.MonitorWorkers = 1
		p.th = &tracedHost{inner: sim, tr: p.tr}
		h = p.th
	}
	if r.ctrl, err = core.New(h, r.cfg); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *nodeSim) period(k int) {
	p := r.p
	for i, inst := range r.insts {
		for j := range r.cycles[i] {
			r.cycles[i][j] = inst.VCPUCycles(j)
		}
	}
	root := p.beginPeriod()
	advNs := p.span(spAdvance, func() { r.machine.Advance(r.cfg.PeriodUs) })
	var err error
	stepNs := p.span(spStep, func() { err = r.ctrl.Step() })
	p.endPeriod(root)

	for i, inst := range r.insts {
		level := 1.0
		if r.levels != nil {
			level = r.levels[i][k]
		}
		tpl := inst.Template()
		demanding := level >= slaDemand*float64(tpl.FreqMHz)/float64(r.machine.Spec().MaxMHz)
		if p.slaDue(&r.demanding[i], demanding) {
			p.slaCount(inst.MeanVCPUFreqMHz(r.cycles[i], r.cfg.PeriodUs), tpl.FreqMHz)
		}
	}
	p.recordNodeStep(r.ctrl, advNs, stepNs, err)
	if p.recording && p.tr != nil && r.levels != nil && (p.timedIdx+1)%snapshotEvery == 0 {
		r.checkpointRoundTrip()
	}
}

// checkpointRoundTrip times Snapshot→JSON and DecodeSnapshot→Restore on
// a twin controller over the same (untraced) simulated host. Restore
// only reads the host, so the controller under test is not disturbed.
func (r *nodeSim) checkpointRoundTrip() {
	p := r.p
	t0 := time.Now()
	data, err := r.ctrl.Snapshot().JSON()
	r.snapNs += int64(time.Since(t0))
	p.check(err == nil, "snapshot: %v", err)
	if err != nil {
		return
	}
	r.snapBytes += int64(len(data))
	r.snaps++
	twin, err := core.New(platform.NewSim(r.mgr), r.cfg)
	if err != nil {
		p.fail("twin controller: %v", err)
		return
	}
	t0 = time.Now()
	snap, err := core.DecodeSnapshot(data)
	if err == nil {
		_, err = twin.Restore(snap)
	}
	r.restoreNs += int64(time.Since(t0))
	p.check(err == nil && len(twin.VMs()) == len(r.insts), "restore: %v, %d VMs", err, len(twin.VMs()))
}

func (r *nodeSim) finish() {
	p := r.p
	checkController(p, r.ctrl, "node")
	d := newDigest()
	digestController(d, r.ctrl)
	for _, inst := range r.insts {
		for j := 0; j < inst.Template().VCPUs; j++ {
			d.int(inst.VCPUCycles(j))
		}
	}
	p.stateDigest = d.sum()
	if r.snaps > 0 {
		p.values["core.snapshot_us"] = us(r.snapNs) / float64(r.snaps)
		p.values["core.snapshot_bytes"] = float64(r.snapBytes) / float64(r.snaps)
		p.values["core.restore_us"] = us(r.restoreNs) / float64(r.snaps)
	}
}

func (r *nodeSim) close() {
	for _, inst := range r.insts {
		t0 := time.Now()
		err := r.mgr.Destroy(inst.Name())
		r.destroyNs += int64(time.Since(t0))
		if err != nil {
			r.p.fail("destroy %s: %v", inst.Name(), err)
		}
	}
	if r.p.tr != nil {
		n := float64(len(r.insts))
		r.p.values["vm.provision_us"] = us(r.provisionNs) / n
		r.p.values["vm.destroy_us"] = us(r.destroyNs) / n
	}
}

// checkController runs the per-controller output checks: Σ caps within
// the node's cycles (Eq. 6), every quota the caps translate to at least
// MinQuotaUs, and every wallet within [0, credit cap].
func checkController(p *pass, c *core.Controller, where string) {
	cfg := c.Config()
	var caps int64
	for _, st := range c.VMs() {
		limit := cfg.CreditCapPeriods * st.GuaranteeUs * int64(len(st.VCPUs))
		p.check(st.CreditUs >= 0 && (cfg.CreditCapPeriods == 0 || st.CreditUs <= limit),
			"%s: %s wallet %d outside [0, %d]", where, st.Info.Name, st.CreditUs, limit)
		for _, v := range st.VCPUs {
			caps += v.CapUs
			p.check(v.CapUs >= 0 && v.CapUs <= cfg.PeriodUs,
				"%s: %s/vcpu%d cap %d outside [0, period]", where, st.Info.Name, v.Index, v.CapUs)
		}
	}
	p.check(caps <= c.CapacityUs(), "%s: Σ caps %d above capacity %d (Eq. 6)", where, caps, c.CapacityUs())
}

// checkQuotas reads every vCPU's cpu.max back through the host's
// QuotaReader and checks it against the floor and the controller's cap.
func checkQuotas(p *pass, c *core.Controller, qr platform.QuotaReader, where string) {
	cfg := c.Config()
	for _, st := range c.VMs() {
		for _, v := range st.VCPUs {
			quota, period, err := qr.ReadMax(st.Info.Name, v.Index)
			want := v.CapUs * cfg.CgroupPeriodUs / cfg.PeriodUs
			if want < cfg.MinQuotaUs {
				want = cfg.MinQuotaUs
			}
			p.check(err == nil && quota >= cfg.MinQuotaUs && quota == want && period == cfg.CgroupPeriodUs,
				"%s: %s/vcpu%d cpu.max = %d %d (%v), want %d %d", where, st.Info.Name, v.Index,
				quota, period, err, want, cfg.CgroupPeriodUs)
		}
	}
}

// digestController folds the controller's caps and wallets into d.
func digestController(d digest, c *core.Controller) {
	for _, st := range c.VMs() {
		d.str(st.Info.Name)
		d.int(st.CreditUs)
		for _, v := range st.VCPUs {
			d.int(v.CapUs)
		}
	}
}
