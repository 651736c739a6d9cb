package platform

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"vfreq/internal/cgroupfs"
	"vfreq/internal/host"
	"vfreq/internal/procfs"
	"vfreq/internal/sysfs"
	"vfreq/internal/vm"
	"vfreq/internal/workload"
)

// pathReader answers Sim's reads the way Sim did before it kept
// memfs.File handles: a path string per access, read with
// FS.ReadFileAppend and parsed by the same parser, with the same error
// wrapping. It is the reference side of TestSimMatchesPathReadsUnderChurn.
type pathReader struct{ m *host.Machine }

func (r pathReader) read(p string) ([]byte, error) { return r.m.FS.ReadFileAppend(p, nil) }

func (r pathReader) cgroupFile(vmName string, vcpu int, name string) string {
	return cgroupfs.DefaultMount + "/" + vm.VCPUCgroup(vmName, vcpu) + "/" + name
}

func (r pathReader) UsageUs(vmName string, vcpu int) (int64, error) {
	content, err := r.read(r.cgroupFile(vmName, vcpu, "cpu.stat"))
	if err != nil {
		return 0, fmt.Errorf("platform: reading cpu.stat of %s/vcpu%d: %w", vmName, vcpu, err)
	}
	return cgroupfs.ParseCPUStatBytes(content, "usage_usec")
}

func (r pathReader) ThreadID(vmName string, vcpu int) (int, error) {
	content, err := r.read(r.cgroupFile(vmName, vcpu, "cgroup.threads"))
	if err != nil {
		return 0, err
	}
	tid, n, err := cgroupfs.ParseSingleTID(content)
	if err != nil {
		return 0, err
	}
	if n != 1 {
		return 0, fmt.Errorf("platform: vCPU cgroup %s/vcpu%d holds %d threads, want 1", vmName, vcpu, n)
	}
	return tid, nil
}

func (r pathReader) LastCPU(tid int) (int, error) {
	line, err := r.read(fmt.Sprintf("%s/%d/stat", procfs.Mount, tid))
	if err != nil {
		return 0, err
	}
	return procfs.ParseStatLastCPUBytes(line)
}

func (r pathReader) CoreFreqMHz(core int) (int64, error) {
	if core < 0 || core >= r.m.Spec().Cores {
		return 0, fmt.Errorf("platform: core %d out of range", core)
	}
	content, err := r.read(sysfs.CurFreqPath(sysfs.Mount, core))
	if err != nil {
		return 0, err
	}
	khz, err := sysfs.ParseKHzBytes(content)
	if err != nil {
		return 0, err
	}
	return khz / 1000, nil
}

func (r pathReader) ReadMax(vmName string, vcpu int) (int64, int64, error) {
	content, err := r.read(r.cgroupFile(vmName, vcpu, "cpu.max"))
	if err != nil {
		return 0, 0, fmt.Errorf("platform: reading cpu.max of %s/vcpu%d: %w", vmName, vcpu, err)
	}
	return parseMax(string(content))
}

// TestSimMatchesPathReadsUnderChurn runs one seeded script on two
// identical machines — Provision, Destroy, re-Provision under the same
// name with another vCPU count, Reconfigure, quota writes, armed read
// faults and Advance — and after every step reads everything on both:
// machine A through Sim's handles, machine B through a path per read.
// Every value and every error must be equal, and so must the number of
// reads each side lost to an injected fault, so the handles neither
// serve a node the tree no longer holds nor draw faults differently.
// Names, vCPU indices, tids and cores outside the live set are read too:
// a handle's misses must be the path's misses.
//
// Kill list: dropping the generation bump in memfs's RemoveAll, or every
// bump, turns this test red.
func TestSimMatchesPathReadsUnderChurn(t *testing.T) {
	newMachine := func() (*host.Machine, *vm.Manager) {
		m, err := host.New(host.Chetemi())
		if err != nil {
			t.Fatal(err)
		}
		mgr, err := vm.NewManager(m)
		if err != nil {
			t.Fatal(err)
		}
		return m, mgr
	}
	ma, mgrA := newMachine()
	mb, mgrB := newMachine()
	s, ref := NewSim(mgrA), pathReader{mb}
	errInjected := errors.New("injected")
	names := []string{"a", "b", "c", "d"}
	templates := []vm.Template{vm.Small(), vm.Medium(), vm.Large()}
	faultSites := []string{"vcpu1/", "/proc/", "scaling_cur_freq", "cpu.stat", "machine-", "cgroup.threads"}
	busy := func(n int) []workload.Source {
		srcs := make([]workload.Source, n)
		for i := range srcs {
			srcs[i] = workload.Busy()
		}
		return srcs
	}

	var faultsA, faultsB int
	tids := map[int]bool{-1: true, 1 << 20: true}
	eq := func(step int, what string, va, vb any, ea, eb error) {
		t.Helper()
		if va != vb || errString(ea) != errString(eb) {
			t.Fatalf("step %d, %s: Sim %v, %v; path %v, %v", step, what, va, ea, vb, eb)
		}
		if errors.Is(ea, errInjected) {
			faultsA++
		}
		if errors.Is(eb, errInjected) {
			faultsB++
		}
	}
	compare := func(step int, list bool) {
		t.Helper()
		if list {
			if _, err := s.ListVMs(); err != nil {
				t.Fatal(err)
			}
		}
		for _, name := range names {
			for j := 0; j < 5; j++ {
				what := fmt.Sprintf("%s/vcpu%d", name, j)
				ua, ea := s.UsageUs(name, j)
				ub, eb := ref.UsageUs(name, j)
				eq(step, "UsageUs "+what, ua, ub, ea, eb)
				qa, pa, ea := s.ReadMax(name, j)
				qb, pb, eb := ref.ReadMax(name, j)
				eq(step, "ReadMax "+what, [2]int64{qa, pa}, [2]int64{qb, pb}, ea, eb)
				ta, ea := s.ThreadID(name, j)
				tb, eb := ref.ThreadID(name, j)
				eq(step, "ThreadID "+what, ta, tb, ea, eb)
				if ea == nil {
					tids[ta] = true
				}
			}
		}
		for tid := range tids {
			ca, ea := s.LastCPU(tid)
			cb, eb := ref.LastCPU(tid)
			eq(step, fmt.Sprintf("LastCPU %d", tid), ca, cb, ea, eb)
		}
		for core := -1; core <= ma.Spec().Cores; core++ {
			fa, ea := s.CoreFreqMHz(core)
			fb, eb := ref.CoreFreqMHz(core)
			eq(step, fmt.Sprintf("CoreFreqMHz %d", core), fa, fb, ea, eb)
		}
		if faultsA != faultsB {
			t.Fatalf("step %d: %d reads faulted through Sim, %d through paths", step, faultsA, faultsB)
		}
	}

	rng := rand.New(rand.NewSource(1))
	compare(0, true)
	for step := 1; step <= 300; step++ {
		name := names[rng.Intn(len(names))]
		tpl := templates[rng.Intn(len(templates))]
		var ea, eb error
		switch op := rng.Intn(8); op {
		case 0, 1: // provision, possibly a name destroyed earlier with another vCPU count
			_, ea = mgrA.Provision(name, tpl, busy(tpl.VCPUs))
			_, eb = mgrB.Provision(name, tpl, busy(tpl.VCPUs))
		case 2:
			ea, eb = mgrA.Destroy(name), mgrB.Destroy(name)
		case 3:
			ea, eb = mgrA.Reconfigure(name, tpl, busy(tpl.VCPUs)), mgrB.Reconfigure(name, tpl, busy(tpl.VCPUs))
		case 4:
			site, count := faultSites[rng.Intn(len(faultSites))], rng.Intn(4)-1
			ma.FailReads(site, errInjected, count)
			mb.FailReads(site, errInjected, count)
		case 5:
			if rng.Intn(3) == 0 {
				ma.ClearFileFaults()
				mb.ClearFileFaults()
			}
		case 6:
			j, quota := rng.Intn(4), int64(1000*rng.Intn(100))
			if quota == 0 {
				ea = s.ClearMax(name, j)
				eb = mb.FS.WriteFile(ref.cgroupFile(name, j, "cpu.max"), "max")
			} else {
				ea = s.SetMax(name, j, quota, 100_000)
				eb = mb.FS.WriteFile(ref.cgroupFile(name, j, "cpu.max"), fmt.Sprintf("%d %d", quota, 100_000))
			}
		case 7:
			ma.Advance(100_000)
			mb.Advance(100_000)
		}
		if errString(ea) != errString(eb) {
			t.Fatalf("step %d: the script diverged: %v on A, %v on B", step, ea, eb)
		}
		// Half the time Sim reads without listing first, as when a VM
		// vanishes between a step's ListVMs and its reads: prune has not
		// run, so only the handles' own check stands between Sim and a
		// node the tree no longer holds.
		compare(step, rng.Intn(2) == 0)
	}
	if faultsA == 0 {
		t.Fatal("no read ever faulted: the script never drew an armed fault")
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
