package host_test

import (
	"testing"

	"vfreq/internal/host"
	"vfreq/internal/platform"
	"vfreq/internal/vm"
	"vfreq/internal/workload"
)

// TestSysfsFrequencyVisible: the frequency a busy vCPU's core runs at is
// what a scaling_cur_freq read through platform.Sim reports, inside the
// node's envelope.
func TestSysfsFrequencyVisible(t *testing.T) {
	m, err := host.New(host.Chetemi())
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := vm.NewManager(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Provision("burn", vm.Small(), []workload.Source{workload.Busy(), workload.Busy()}); err != nil {
		t.Fatal(err)
	}
	m.Advance(200_000)
	s := platform.NewSim(mgr)
	tid, err := s.ThreadID("burn", 0)
	if err != nil {
		t.Fatal(err)
	}
	core, err := s.LastCPU(tid)
	if err != nil {
		t.Fatal(err)
	}
	mhz, err := s.CoreFreqMHz(core)
	if err != nil {
		t.Fatal(err)
	}
	if mhz != m.DVFS.FreqMHz(core) || mhz < m.Spec().MinMHz || mhz > m.Spec().TurboMHz {
		t.Fatalf("scaling_cur_freq of core %d = %d MHz, model %d, envelope [%d, %d]",
			core, mhz, m.DVFS.FreqMHz(core), m.Spec().MinMHz, m.Spec().TurboMHz)
	}
}
