// Package vm models virtual machines the way KVM/libvirt expose them to a
// host-side controller: each VM is a cgroup scope under machine.slice with
// one sub-cgroup per vCPU holding exactly one thread, plus an emulator
// cgroup for the QEMU housekeeping threads.
//
// The paper extends the VM template with a virtual frequency (MHz) chosen
// by the customer; Template carries it alongside the classic dimensions.
package vm

import (
	"fmt"
	"slices"
	"strconv"

	"vfreq/internal/host"
	"vfreq/internal/sched"
	"vfreq/internal/workload"
)

// Slice is the parent cgroup of all VM scopes, as created by libvirt.
const Slice = "machine.slice"

// emulator is the load of every VM's QEMU housekeeping thread, bound once
// so provisioning does not allocate the two method values.
var (
	emulator                      = &workload.Constant{Level: 0.005}
	emulatorDemand, emulatorUntil = emulator.Demand, emulator.Until
)

// Template is a VM flavour: the classic capacities plus the paper's
// virtual frequency F_v.
type Template struct {
	Name     string
	VCPUs    int
	FreqMHz  int64 // virtual frequency guaranteed to each vCPU
	MemoryGB int
}

// Validate checks the template.
func (t Template) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("vm: template has no name")
	}
	if t.VCPUs <= 0 {
		return fmt.Errorf("vm: template %q has no vCPUs", t.Name)
	}
	if t.FreqMHz <= 0 {
		return fmt.Errorf("vm: template %q has no virtual frequency", t.Name)
	}
	if t.MemoryGB <= 0 {
		return fmt.Errorf("vm: template %q has no memory", t.Name)
	}
	return nil
}

// The paper's three templates (Tables II and V). Memory sizes are not
// given in the paper; these are typical for the shapes used.
func Small() Template  { return Template{Name: "small", VCPUs: 2, FreqMHz: 500, MemoryGB: 2} }
func Medium() Template { return Template{Name: "medium", VCPUs: 4, FreqMHz: 1200, MemoryGB: 4} }
func Large() Template  { return Template{Name: "large", VCPUs: 4, FreqMHz: 1800, MemoryGB: 8} }

// Instance is a provisioned VM on a machine.
type Instance struct {
	name     string
	template Template
	scope    *sched.Group // ScopePath(name)
	vcpus    []*sched.Thread
	sources  []workload.Source
	// destroyed tells a holder of the instance it from a new one
	// provisioned under its name.
	destroyed bool
}

// ScopePath returns the libvirt-style scope cgroup path for a VM name.
func ScopePath(name string) string { return Slice + "/" + scopeName(name) }

// scopeName is the name of a VM's scope cgroup under Slice.
func scopeName(name string) string { return "machine-qemu-" + name + ".scope" }

// VCPUCgroup returns the cgroup path of vCPU j of a VM name.
func VCPUCgroup(name string, j int) string {
	return fmt.Sprintf("%s/vcpu%d", ScopePath(name), j)
}

// Manager provisions and tracks instances on one machine, playing the
// role libvirt plays on a real host. It creates and removes the cgroups
// in the machine's scheduler directly: an instance holds its scope.
type Manager struct {
	machine   *host.Machine
	slice     *sched.Group         // machine.slice
	instances map[string]*Instance // name index of list
	list      []*Instance          // the instances in provisioning order
}

// NewManager creates a manager and the machine.slice cgroup, or adopts
// the one the machine's root already has.
func NewManager(m *host.Machine) (*Manager, error) {
	mg := &Manager{machine: m, instances: map[string]*Instance{}}
	root := m.Sched.Root()
	if i := slices.IndexFunc(root.Children, func(g *sched.Group) bool { return g.Name == Slice }); i >= 0 {
		mg.slice = root.Children[i]
	} else {
		mg.slice = m.Sched.NewGroup(root, Slice)
	}
	return mg, nil
}

// Machine returns the managed machine.
func (mg *Manager) Machine() *host.Machine { return mg.machine }

// Provision creates a VM instance named name from tpl. srcs supplies the
// per-vCPU workloads; it may be nil (all idle) or have exactly VCPUs
// entries.
func (mg *Manager) Provision(name string, tpl Template, srcs []workload.Source) (*Instance, error) {
	if err := tpl.Validate(); err != nil {
		return nil, err
	}
	if _, ok := mg.instances[name]; ok {
		return nil, fmt.Errorf("vm: instance %q already exists", name)
	}
	if srcs == nil {
		srcs = make([]workload.Source, tpl.VCPUs)
		for i := range srcs {
			srcs[i] = workload.Idle()
		}
	}
	if len(srcs) != tpl.VCPUs {
		return nil, fmt.Errorf("vm: %d workload sources for %d vCPUs", len(srcs), tpl.VCPUs)
	}
	if tpl.FreqMHz > mg.machine.Spec().MaxMHz {
		return nil, fmt.Errorf("vm: template frequency %d MHz exceeds node F_MAX %d MHz",
			tpl.FreqMHz, mg.machine.Spec().MaxMHz)
	}
	inst := &Instance{
		name:     name,
		template: tpl,
		scope:    mg.machine.Sched.NewGroup(mg.slice, scopeName(name)),
		// Sized here, once: regrown between the cgroup and thread
		// allocations they scatter those, ≈ 3 % of a cluster_fleet step.
		sources: make([]workload.Source, 0, tpl.VCPUs),
	}
	for _, src := range srcs {
		if err := mg.addVCPU(inst, src); err != nil {
			return nil, err
		}
	}
	em, err := mg.machine.StartThread(mg.machine.Sched.NewGroup(inst.scope, "emulator"), emulatorDemand)
	if err != nil {
		return nil, err
	}
	em.Until = emulatorUntil
	mg.instances[name] = inst
	mg.list = append(mg.list, inst)
	return inst, nil
}

// Reconfigure applies a live template change to a running instance, the
// operation adaptive resource managers (ADARES-style) perform
// continuously: a frequency or memory change updates the template in
// place, and a vCPU-count change grows the instance (creating vCPU
// cgroups and threads; srcs supplies the workloads of the NEW vCPUs and
// may be nil for idle ones) or shrinks it (stopping the trailing threads
// and removing their cgroups). The instance keeps running throughout —
// existing vCPU threads, their usage counters and their workload state
// are untouched. An instance whose scope cgroup has left the tree cannot
// be reconfigured.
func (mg *Manager) Reconfigure(name string, tpl Template, srcs []workload.Source) error {
	inst, ok := mg.instances[name]
	if !ok {
		return fmt.Errorf("vm: no instance %q", name)
	}
	if !mg.machine.Sched.InTree(inst.scope) {
		return fmt.Errorf("vm: instance %q: cgroup %s is not in the tree", name, ScopePath(name))
	}
	if err := tpl.Validate(); err != nil {
		return err
	}
	if tpl.FreqMHz > mg.machine.Spec().MaxMHz {
		return fmt.Errorf("vm: template frequency %d MHz exceeds node F_MAX %d MHz",
			tpl.FreqMHz, mg.machine.Spec().MaxMHz)
	}
	old := len(inst.vcpus)
	grow := tpl.VCPUs - old
	if grow > 0 {
		if srcs == nil {
			srcs = make([]workload.Source, grow)
			for i := range srcs {
				srcs[i] = workload.Idle()
			}
		}
		if len(srcs) != grow {
			return fmt.Errorf("vm: %d workload sources for %d new vCPUs", len(srcs), grow)
		}
		for _, src := range srcs {
			if err := mg.addVCPU(inst, src); err != nil {
				return err
			}
		}
	} else if grow < 0 {
		for j := tpl.VCPUs; j < old; j++ {
			g := inst.vcpus[j].Group
			mg.machine.StopThread(inst.vcpus[j])
			if err := mg.machine.Sched.RemoveGroup(g); err != nil {
				return err
			}
		}
		inst.vcpus = inst.vcpus[:tpl.VCPUs]
		inst.sources = inst.sources[:tpl.VCPUs]
	}
	inst.template = tpl
	return nil
}

// addVCPU gives the instance its next vCPU: the cgroup, the thread in it
// running src, and the instance's record of both. No source enters
// inst.sources elsewhere, so the slice never shares a caller's array. The
// host counts the thread's cycles; a source that is an Accounter is told
// of them as well.
func (mg *Manager) addVCPU(inst *Instance, src workload.Source) error {
	g := mg.machine.Sched.NewGroup(inst.scope, "vcpu"+strconv.Itoa(len(inst.vcpus)))
	th, err := mg.machine.StartThread(g, src.Demand)
	if err != nil {
		return err
	}
	th.Until = src.Until
	if a, ok := src.(workload.Accounter); ok {
		th.OnRun = a.Account
	}
	inst.sources = append(inst.sources, src)
	inst.vcpus = append(inst.vcpus, th)
	return nil
}

// Destroy removes an instance, its threads and its cgroups. An instance
// whose scope cgroup has already left the tree, its threads detached with
// it, is only forgotten.
func (mg *Manager) Destroy(name string) error {
	inst, ok := mg.instances[name]
	if !ok {
		return fmt.Errorf("vm: no instance %q", name)
	}
	// Removing the scope cgroup detaches all threads at once.
	if mg.machine.Sched.InTree(inst.scope) {
		if err := mg.machine.Sched.RemoveGroup(inst.scope); err != nil {
			return err
		}
	}
	inst.destroyed = true
	delete(mg.instances, name)
	mg.list = slices.DeleteFunc(mg.list, func(i *Instance) bool { return i == inst })
	return nil
}

// Get returns the instance with the given name, or nil.
func (mg *Manager) Get(name string) *Instance { return mg.instances[name] }

// List returns all instances in provisioning order. The returned slice
// is owned by the manager and valid until the next Provision or Destroy;
// callers must not mutate or retain it.
func (mg *Manager) List() []*Instance {
	return mg.list
}

// Name returns the instance name.
func (i *Instance) Name() string { return i.name }

// Destroyed reports whether Manager.Destroy removed the instance.
func (i *Instance) Destroyed() bool { return i.destroyed }

// Template returns the instance's template.
func (i *Instance) Template() Template { return i.template }

// Sources returns the workloads the instance runs now, one per vCPU: what
// a migration provisions on the target. Callers must not mutate the slice.
func (i *Instance) Sources() []workload.Source { return i.sources }

// VCPUThread returns the scheduler thread of vCPU j.
func (i *Instance) VCPUThread(j int) *sched.Thread { return i.vcpus[j] }

// VCPUCycles returns the cumulative cycles attained by vCPU j — the
// ground-truth virtual work, used to validate the controller's estimates.
func (i *Instance) VCPUCycles(j int) int64 { return i.vcpus[j].Cycles }

// MeanVCPUFreqMHz returns the instance's average virtual frequency over a
// window: (cycles now − cyclesBefore) / windowUs, averaged over vCPUs.
func (i *Instance) MeanVCPUFreqMHz(cyclesBefore []int64, windowUs int64) float64 {
	if windowUs <= 0 || len(cyclesBefore) != len(i.vcpus) {
		return 0
	}
	var sum float64
	for j, th := range i.vcpus {
		sum += float64(th.Cycles-cyclesBefore[j]) / float64(windowUs)
	}
	return sum / float64(len(i.vcpus))
}

// SnapshotCycles copies the current per-vCPU cycle counters.
func (i *Instance) SnapshotCycles() []int64 {
	out := make([]int64, len(i.vcpus))
	for j, th := range i.vcpus {
		out[j] = th.Cycles
	}
	return out
}
