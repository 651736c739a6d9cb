package platform

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"strconv"
	"testing"

	"vfreq/internal/cgroupfs"
	"vfreq/internal/host"
	"vfreq/internal/procfs"
	"vfreq/internal/sched"
	"vfreq/internal/sysfs"
	"vfreq/internal/vm"
	"vfreq/internal/workload"
)

// Kill list of TestSimMatchesRenderedUnderChurn: each of these changes to
// sim.go turns it red, for the reason given.
//
//	LastCPU returns th.LastCPU unclamped            a never-run thread reads -1; its stat line says 0
//	SetMax drops its quotaUs <= 0 refusal           a 0 or -1 (NoQuota) quota is taken; cpu.max refuses it
//	readGroup looks the model up before ReadFault   a read of a missing file spends no armed fault
//	ClearMax resets the period to the default       ReadMax after "max" shows another period
//	LastCPU skips ReadFault                         a fault armed on "/proc/" never fires

// renderedReader answers Sim's calls the way the simulated host did while
// it served pseudo-files: one read of a file is the machine's fault check
// on the file's path, then the file rendered from the model as its mount
// rendered it, then the parser platform.Linux uses on the kernel's file. A
// write renders cpu.max's content and hands it to cgroupfs.ParseCPUMax and
// the group, as the file's write handler did. A vCPU's files exist while
// the Tree names its cgroup. It is the reference side of
// TestSimMatchesRenderedUnderChurn.
type renderedReader struct {
	m *host.Machine
}

func (r renderedReader) cgroupFile(vmName string, vcpu int, name string) string {
	return cgroupfs.DefaultMount + "/" + vm.VCPUCgroup(vmName, vcpu) + "/" + name
}

// group returns the vCPU's cgroup, or nil when the Tree names none.
func (r renderedReader) group(vmName string, vcpu int) *sched.Group {
	g, err := r.m.Cgroups.Group(vm.VCPUCgroup(vmName, vcpu))
	if err != nil {
		return nil
	}
	return g
}

// read reads the file at path: the fault check first, then render's
// content, or a missing file when render is nil.
func (r renderedReader) read(path string, render func(buf []byte) []byte) ([]byte, error) {
	if err := r.m.ReadFault(path); err != nil {
		return nil, err
	}
	if render == nil {
		return nil, fmt.Errorf("platform: %s: %w", path, fs.ErrNotExist)
	}
	return render(nil), nil
}

// groupFile returns the render of a file of the vCPU's cgroup, nil when
// the cgroup does not exist.
func (r renderedReader) groupFile(vmName string, vcpu int, render func(buf []byte, g *sched.Group) []byte) func([]byte) []byte {
	g := r.group(vmName, vcpu)
	if g == nil {
		return nil
	}
	return func(buf []byte) []byte { return render(buf, g) }
}

func renderCPUStat(buf []byte, g *sched.Group) []byte {
	u := strconv.FormatInt(g.UsageUs, 10)
	return append(buf, "usage_usec "+u+"\nuser_usec "+u+"\nsystem_usec 0\n"...)
}

func renderCPUMax(buf []byte, g *sched.Group) []byte {
	if g.QuotaUs == sched.NoQuota {
		return fmt.Appendf(buf, "max %d\n", g.PeriodUs)
	}
	return fmt.Appendf(buf, "%d %d\n", g.QuotaUs, g.PeriodUs)
}

// renderThreads lists the group's thread ids ascending, one per line.
func renderThreads(buf []byte, g *sched.Group) []byte {
	prev := -1
	for range g.Threads {
		next := -1
		for _, th := range g.Threads {
			if th.ID > prev && (next == -1 || th.ID < next) {
				next = th.ID
			}
		}
		buf, prev = fmt.Appendf(buf, "%d\n", next), next
	}
	return buf
}

func (r renderedReader) UsageUs(vmName string, vcpu int) (int64, error) {
	content, err := r.read(r.cgroupFile(vmName, vcpu, "cpu.stat"), r.groupFile(vmName, vcpu, renderCPUStat))
	if err != nil {
		return 0, fmt.Errorf("platform: reading cpu.stat of %s/vcpu%d: %w", vmName, vcpu, err)
	}
	return cgroupfs.ParseCPUStatBytes(content, "usage_usec")
}

func (r renderedReader) ReadMax(vmName string, vcpu int) (int64, int64, error) {
	content, err := r.read(r.cgroupFile(vmName, vcpu, "cpu.max"), r.groupFile(vmName, vcpu, renderCPUMax))
	if err != nil {
		return 0, 0, fmt.Errorf("platform: reading cpu.max of %s/vcpu%d: %w", vmName, vcpu, err)
	}
	return parseMax(string(content))
}

func (r renderedReader) ThreadID(vmName string, vcpu int) (int, error) {
	content, err := r.read(r.cgroupFile(vmName, vcpu, "cgroup.threads"), r.groupFile(vmName, vcpu, renderThreads))
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

func (r renderedReader) LastCPU(tid int) (int, error) {
	var render func([]byte) []byte
	if th := r.m.Sched.Thread(tid); th != nil {
		render = func(buf []byte) []byte { return procfs.AppendStat(buf, tid, "CPU 0/KVM", th.UsageUs, th.LastCPU) }
	}
	line, err := r.read(fmt.Sprintf("%s/%d/stat", procfs.Mount, tid), render)
	if err != nil {
		return 0, err
	}
	return procfs.ParseStatLastCPUBytes(line)
}

func (r renderedReader) CoreFreqMHz(core int) (int64, error) {
	if core < 0 || core >= r.m.Spec().Cores {
		return 0, fmt.Errorf("platform: core %d out of range", core)
	}
	content, err := r.read(sysfs.CurFreqPath(sysfs.Mount, core), func(buf []byte) []byte {
		return fmt.Appendf(buf, "%d\n", r.m.DVFS.FreqKHz(core))
	})
	if err != nil {
		return 0, err
	}
	khz, err := sysfs.ParseKHzBytes(content)
	if err != nil {
		return 0, err
	}
	return khz / 1000, nil
}

// write is a write of content to the vCPU's cpu.max.
func (r renderedReader) write(vmName string, vcpu int, content string) error {
	g := r.group(vmName, vcpu)
	if g == nil {
		return fmt.Errorf("platform: %s: %w", r.cgroupFile(vmName, vcpu, "cpu.max"), fs.ErrNotExist)
	}
	q, p, err := cgroupfs.ParseCPUMax(content, g.PeriodUs)
	if err != nil {
		return err
	}
	return g.SetQuota(q, p)
}

func (r renderedReader) SetMax(vmName string, vcpu int, quotaUs, periodUs int64) error {
	return r.write(vmName, vcpu, fmt.Sprintf("%d %d", quotaUs, periodUs))
}

func (r renderedReader) ClearMax(vmName string, vcpu int) error { return r.write(vmName, vcpu, "max") }

// TestSimMatchesRenderedUnderChurn runs one seeded script on two identical
// machines — Provision, Destroy, re-Provision under the same name with
// another vCPU count, Reconfigure, quota writes (refused ones included),
// armed read faults and Advance — and after every step reads everything
// on both: machine A through Sim, machine B through renderedReader. Every
// value and every read error must be equal, every write must succeed or
// fail alike (and miss alike), and the number of reads each side lost to
// an injected fault must be equal, so Sim draws faults exactly as the
// rendered files did. Names, vCPU indices, tids and cores outside the
// live set are read too, and the first reads come before any Advance,
// while no thread has run.
func TestSimMatchesRenderedUnderChurn(t *testing.T) {
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
	s, ref := NewSim(mgrA), renderedReader{mb}
	errInjected := errors.New("injected")
	names := []string{"a", "b", "c", "d"}
	templates := []vm.Template{vm.Small(), vm.Medium(), vm.Large()}
	faultSites := []string{"vcpu1/", "/proc/", "scaling_cur_freq", "cpu.stat", "cpu.max", "machine-", "cgroup.threads"}
	quotas := []int64{-1, 0, 1_000, 25_000, 50_000, 100_000, 150_000}
	periods := []int64{0, 50_000, 100_000, 250_000}
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
			t.Fatalf("step %d, %s: Sim %v, %v; rendered %v, %v", step, what, va, ea, vb, eb)
		}
		if errors.Is(ea, errInjected) {
			faultsA++
		}
		if errors.Is(eb, errInjected) {
			faultsB++
		}
	}
	readMax := func(step int, name string, j int) {
		t.Helper()
		qa, pa, ea := s.ReadMax(name, j)
		qb, pb, eb := ref.ReadMax(name, j)
		eq(step, fmt.Sprintf("ReadMax %s/vcpu%d", name, j), [2]int64{qa, pa}, [2]int64{qb, pb}, ea, eb)
	}
	var writes, refused int
	write := func(step int, what, name string, j int, wa, wb error) {
		t.Helper()
		if (wa == nil) != (wb == nil) || errors.Is(wa, fs.ErrNotExist) != errors.Is(wb, fs.ErrNotExist) {
			t.Fatalf("step %d: %s %s/vcpu%d: Sim %v, rendered %v", step, what, name, j, wa, wb)
		}
		writes++
		if wa != nil && !errors.Is(wa, fs.ErrNotExist) {
			refused++
		}
		readMax(step, name, j)
	}
	compare := func(step int, list bool) {
		t.Helper()
		if list {
			if _, err := s.ListVMs(); err != nil {
				t.Fatal(err)
			}
		}
		for _, name := range names {
			for j := -1; j < 5; j++ {
				what := fmt.Sprintf("%s/vcpu%d", name, j)
				ua, ea := s.UsageUs(name, j)
				ub, eb := ref.UsageUs(name, j)
				eq(step, "UsageUs "+what, ua, ub, ea, eb)
				readMax(step, name, j)
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
			t.Fatalf("step %d: %d reads faulted through Sim, %d rendered", step, faultsA, faultsB)
		}
	}

	// Step 0 reads a VM whose threads have never run.
	if _, err := mgrA.Provision(names[0], vm.Small(), busy(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := mgrB.Provision(names[0], vm.Small(), busy(2)); err != nil {
		t.Fatal(err)
	}
	compare(0, true)
	rng := rand.New(rand.NewSource(1))
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
		case 6: // a quota write, then half the time "max" over it
			j := rng.Intn(4)
			quota, period := quotas[rng.Intn(len(quotas))], periods[rng.Intn(len(periods))]
			write(step, "SetMax", name, j, s.SetMax(name, j, quota, period), ref.SetMax(name, j, quota, period))
			if rng.Intn(2) == 0 {
				write(step, "ClearMax", name, j, s.ClearMax(name, j), ref.ClearMax(name, j))
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
		// run, so Sim's paths may name a vCPU that is gone.
		compare(step, rng.Intn(2) == 0)
	}
	if faultsA == 0 || refused == 0 || refused == writes {
		t.Fatalf("the script drew %d faults and %d refused writes of %d: it misses a case", faultsA, refused, writes)
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
