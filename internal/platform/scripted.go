package platform

import (
	"fmt"
	"slices"
)

// Scripted is the Host whose readings are whatever its caller set: no
// machine, scheduler or file stands behind it. A caller adds VMs, makes
// their vCPUs consume, places threads and sets core frequencies, then
// reads back what the controller wrote. The estimator figures drive a
// controller with it; tests use it bare or under WithFaults.
//
// It keeps the Host contract (TestHostContract): an unknown VM or vCPU is
// an error on every VM-scoped call, LastCPU knows only the threads of
// live vCPUs, CoreFreqMHz range-checks, and a removed VM stops answering.
// Reads are map lookups and allocate nothing.
type Scripted struct {
	node    NodeInfo
	vms     []VMInfo
	vcpus   map[VCPURef]*ScriptedVCPU
	threads map[int]*ScriptedVCPU // the live vCPUs by TID
	nextTID int

	// CoreMHz is what CoreFreqMHz reports for the cores the script put in
	// it; every other core runs at the node's MaxFreqMHz.
	CoreMHz map[int]int64
	// SetMaxCalls counts the SetMax calls received. Cleared lists the vCPU
	// of every ClearMax call received, in order — those for a VM already
	// removed too: a controller releases a departed VM's quotas after the
	// listing that dropped it.
	SetMaxCalls int
	Cleared     []VCPURef
}

// VCPURef names one vCPU of one VM.
type VCPURef struct {
	VM   string
	VCPU int
}

// ScriptedVCPU is one vCPU of a Scripted host: what its reads answer, for
// the script to set, and what the controller last wrote, for it to check.
type ScriptedVCPU struct {
	UsageUs int64 // cumulative; Consume adds to it
	TID     int   // counts up from 1 over the host's life, never reused
	LastCPU int   // the core LastCPU(TID) reports

	QuotaUs, PeriodUs int64 // as SetMax last wrote them; QuotaUs is NoQuota when none is in force
	BurstUs           int64
}

// NewScripted returns a host with no VMs on the given node.
func NewScripted(node NodeInfo) *Scripted {
	return &Scripted{
		node:    node,
		vcpus:   map[VCPURef]*ScriptedVCPU{},
		threads: map[int]*ScriptedVCPU{},
		CoreMHz: map[int]int64{},
	}
}

func (s *Scripted) index(name string) int {
	return slices.IndexFunc(s.vms, func(vm VMInfo) bool { return vm.Name == name })
}

// AddVM lists a new VM after the ones already there. Its vCPUs start at
// zero usage, unlimited, each on a thread of its own that last ran on
// core 0.
func (s *Scripted) AddVM(name string, vcpus int, freqMHz int64) {
	if s.index(name) >= 0 {
		panic(fmt.Sprintf("platform: scripted VM %q added twice", name))
	}
	s.vms = append(s.vms, VMInfo{Name: name})
	s.SetTemplate(name, vcpus, freqMHz)
}

// RemoveVM takes the VM off the host, with everything known about its
// vCPUs. A VM added again under the name starts from zero, which is how a
// script restarts one.
func (s *Scripted) RemoveVM(name string) {
	s.SetTemplate(name, 0, 0) // drops every vCPU
	s.Unlist(name)
}

// Unlist drops a VM from the listing and leaves its vCPUs answering — a VM
// whose template was withdrawn, which Linux stops listing too — so what a
// controller writes on letting go of it can be read back.
func (s *Scripted) Unlist(name string) {
	i := s.index(name)
	s.vms = slices.Delete(s.vms, i, i+1)
}

// SetTemplate changes a listed VM's vCPU count and frequency in place:
// added vCPUs start like AddVM's, trailing ones are dropped. Naming a VM
// that is not listed is a bug in the script and panics.
func (s *Scripted) SetTemplate(name string, vcpus int, freqMHz int64) {
	i := s.index(name)
	if i < 0 {
		panic(fmt.Sprintf("platform: scripted VM %q is not there", name))
	}
	vm := &s.vms[i]
	for j := vm.VCPUs; j < vcpus; j++ {
		s.nextTID++
		v := &ScriptedVCPU{TID: s.nextTID, QuotaUs: NoQuota}
		s.vcpus[VCPURef{name, j}], s.threads[v.TID] = v, v
	}
	for j := vcpus; j < vm.VCPUs; j++ {
		delete(s.threads, s.vcpus[VCPURef{name, j}].TID)
		delete(s.vcpus, VCPURef{name, j})
	}
	vm.VCPUs, vm.FreqMHz = vcpus, freqMHz
}

// VCPU returns a live vCPU for the script to read or set, nil when the
// host has none by that name.
func (s *Scripted) VCPU(vm string, vcpu int) *ScriptedVCPU { return s.vcpus[VCPURef{vm, vcpu}] }

// Consume adds us microseconds to a live vCPU's cumulative usage.
func (s *Scripted) Consume(vm string, vcpu int, us int64) { s.VCPU(vm, vcpu).UsageUs += us }

// live is VCPU for the Host methods. For a vCPU that is not there it
// returns an error and a throwaway one, so a method reads a zero or writes
// into the void and hands the error on.
func (s *Scripted) live(vm string, vcpu int) (*ScriptedVCPU, error) {
	if v := s.VCPU(vm, vcpu); v != nil {
		return v, nil
	}
	return new(ScriptedVCPU), fmt.Errorf("platform: scripted host has no vCPU %s/%d", vm, vcpu)
}

// Node implements Host.
func (s *Scripted) Node() NodeInfo { return s.node }

// ListVMs implements Host. The slice is the host's own: the next
// scripting call may change it.
func (s *Scripted) ListVMs() ([]VMInfo, error) { return s.vms, nil }

// UsageUs implements Host.
func (s *Scripted) UsageUs(vm string, vcpu int) (int64, error) {
	v, err := s.live(vm, vcpu)
	return v.UsageUs, err
}

// SetMax implements Host.
func (s *Scripted) SetMax(vm string, vcpu int, quotaUs, periodUs int64) error {
	s.SetMaxCalls++
	v, err := s.live(vm, vcpu)
	v.QuotaUs, v.PeriodUs = quotaUs, periodUs
	return err
}

// ClearMax implements Host.
func (s *Scripted) ClearMax(vm string, vcpu int) error {
	s.Cleared = append(s.Cleared, VCPURef{vm, vcpu})
	v, err := s.live(vm, vcpu)
	v.QuotaUs = NoQuota
	return err
}

// SetBurst implements Host.
func (s *Scripted) SetBurst(vm string, vcpu int, burstUs int64) error {
	v, err := s.live(vm, vcpu)
	v.BurstUs = burstUs
	return err
}

// ThreadID implements Host.
func (s *Scripted) ThreadID(vm string, vcpu int) (int, error) {
	v, err := s.live(vm, vcpu)
	return v.TID, err
}

// LastCPU implements Host.
func (s *Scripted) LastCPU(tid int) (int, error) {
	v := s.threads[tid]
	if v == nil {
		return 0, fmt.Errorf("platform: scripted host has no thread %d", tid)
	}
	return v.LastCPU, nil
}

// CoreFreqMHz implements Host.
func (s *Scripted) CoreFreqMHz(core int) (int64, error) {
	if core < 0 || core >= s.node.Cores {
		return 0, fmt.Errorf("platform: core %d out of range", core)
	}
	if mhz, set := s.CoreMHz[core]; set {
		return mhz, nil
	}
	return s.node.MaxFreqMHz, nil
}
