package platform

import (
	"errors"
	"fmt"
	"io/fs"
	"slices"
	"strconv"
	"testing"

	"vfreq/internal/vm"
	"vfreq/internal/workload"
)

// contractRig is a Host under TestHostContract plus the three things the
// table does to the machine behind it.
type contractRig struct {
	host     Host
	addVM    func(name string, vcpus int, freqMHz int64)
	removeVM func(name string)
	advance  func() // every vCPU of every VM consumes
	// footprint renders what the subject remembers between calls (cache
	// sizes, the listing's validity), for the rows that require a refused
	// call to leave nothing behind.
	footprint func() string
	// noBurst: the host has no cpu.max.burst, as a kernel before 5.14
	// has none, and SetBurst fails with fs.ErrNotExist.
	noBurst bool
}

func simRig(t *testing.T) *contractRig {
	s, mgr := newSim(t)
	return &contractRig{
		host: s,
		addVM: func(name string, vcpus int, freqMHz int64) {
			t.Helper()
			srcs := make([]workload.Source, vcpus)
			for j := range srcs {
				srcs[j] = workload.Busy()
			}
			tpl := vm.Template{Name: name, VCPUs: vcpus, FreqMHz: freqMHz, MemoryGB: 1}
			if _, err := mgr.Provision(name, tpl, srcs); err != nil {
				t.Fatal(err)
			}
		},
		removeVM: func(name string) {
			t.Helper()
			if err := mgr.Destroy(name); err != nil {
				t.Fatal(err)
			}
		},
		advance:   func() { mgr.Machine().Advance(100_000) },
		footprint: func() string { return fmt.Sprint(len(s.vcpuPaths), len(s.tidPaths)) },
		noBurst:   true,
	}
}

// faultySimRig is Sim behind the fault wrapper with no plan armed: the
// wrapper has to be transparent.
func faultySimRig(t *testing.T) *contractRig {
	r := simRig(t)
	r.host = WithFaults(r.host, 1)
	return r
}

func linuxRig(t *testing.T) *contractRig {
	tr := newTree(t)
	usage := map[string]int{} // cpu.stat path → usage_usec
	vcpus := map[string]int{}
	return &contractRig{
		host: tr.l,
		addVM: func(name string, n int, freqMHz int64) {
			t.Helper()
			tr.addVM(name, n)
			tr.l.Freqs[name] = freqMHz
			vcpus[name] = n
		},
		removeVM: func(name string) {
			t.Helper()
			tr.remove(scopeOf(name))
			delete(tr.l.Freqs, name)
			delete(vcpus, name)
		},
		advance: func() {
			t.Helper()
			for name, n := range vcpus {
				for j := 0; j < n; j++ {
					stat := scopeOf(name) + "/vcpu" + strconv.Itoa(j) + "/cpu.stat"
					usage[stat] += 1000
					tr.write(stat, "usage_usec "+strconv.Itoa(1+usage[stat])+"\n")
				}
			}
		},
		footprint: func() string {
			return fmt.Sprint(len(tr.l.vcpus), len(tr.l.procs), coreHandles(tr.l), tr.l.scanOK)
		},
	}
}

func scriptedRig(t *testing.T) *contractRig {
	s := NewScripted(NodeInfo{Name: "scripted", Cores: 4, MaxFreqMHz: 2400})
	return &contractRig{
		host:     s,
		addVM:    s.AddVM,
		removeVM: s.RemoveVM,
		advance: func() {
			for _, vm := range s.vms {
				for j := 0; j < vm.VCPUs; j++ {
					s.Consume(vm.Name, j, 1000)
				}
			}
		},
		footprint: func() string { return fmt.Sprint(len(s.vcpus), len(s.threads), len(s.CoreMHz)) },
	}
}

// list is ListVMs, copied: a host may reuse the slice it returns.
func (r *contractRig) list(t *testing.T) []VMInfo {
	t.Helper()
	vms, err := r.host.ListVMs()
	if err != nil {
		t.Fatal(err)
	}
	return slices.Clone(vms)
}

// TestHostContract states what a Host promises, once, and holds every
// implementation to it: the two backends, the scripted double, and the
// fault wrapper with nothing armed. Each row comes from the Host doc
// comments or from what internal/core relies on, runs on a fresh rig, and
// names the one-line mutations that were checked to turn it red.
func TestHostContract(t *testing.T) {
	subjects := []struct {
		name string
		rig  func(*testing.T) *contractRig
	}{
		{"Sim", simRig},
		{"Linux", linuxRig},
		{"Scripted", scriptedRig},
		{"WithFaults(Sim)", faultySimRig},
	}
	rows := []struct {
		name string
		run  func(*testing.T, *contractRig)
	}{
		// Red when: Scripted.Node returns NodeInfo{}.
		{"node is positive and stable", func(t *testing.T, r *contractRig) {
			n := r.host.Node()
			if n.Cores <= 0 || n.MaxFreqMHz <= 0 {
				t.Fatalf("Node = %+v, want positive cores and F_MAX", n)
			}
			r.addVM("a", 1, 1200)
			r.advance()
			if again := r.host.Node(); again != n {
				t.Fatalf("Node = %+v, was %+v", again, n)
			}
		}},
		// Red when: Scripted.RemoveVM keeps the entry in s.vms; Linux.ListVMs
		// scans only once (rescanned := l.scan == nil).
		{"listing follows arrivals and departures", func(t *testing.T, r *contractRig) {
			a, b := VMInfo{"a", 2, 1800}, VMInfo{"b", 1, 600}
			if got := r.list(t); len(got) != 0 {
				t.Fatalf("empty host lists %+v", got)
			}
			r.addVM("a", 2, 1800)
			if got := r.list(t); !slices.Equal(got, []VMInfo{a}) {
				t.Fatalf("after a arrived: %+v", got)
			}
			r.addVM("b", 1, 600)
			if got := r.list(t); !slices.Equal(got, []VMInfo{a, b}) {
				t.Fatalf("after b arrived: %+v", got)
			}
			r.removeVM("a")
			if got := r.list(t); !slices.Equal(got, []VMInfo{b}) {
				t.Fatalf("on the call after a left: %+v", got)
			}
		}},
		// Red when: Scripted.UsageUs answers 0, nil for an unknown vCPU.
		{"usage is monotone and refuses what is not there", func(t *testing.T, r *contractRig) {
			r.addVM("a", 2, 1200)
			r.list(t)
			var last [2]int64
			for round := 0; round < 3; round++ {
				for j := range last {
					u, err := r.host.UsageUs("a", j)
					if err != nil {
						t.Fatal(err)
					}
					if u < last[j] || (round > 0 && u == last[j]) {
						t.Fatalf("round %d: a/%d usage %d after %d", round, j, u, last[j])
					}
					last[j] = u
				}
				r.advance()
			}
			if u, err := r.host.UsageUs("ghost", 0); err == nil {
				t.Fatalf("usage of an unknown VM = %d, want an error", u)
			}
			if u, err := r.host.UsageUs("a", 2); err == nil {
				t.Fatalf("usage of vCPU 2 of a 2-vCPU VM = %d, want an error", u)
			}
		}},
		// Red when: Scripted.SetTemplate does not advance nextTID.
		{"threads are distinct, stable and placed on the node", func(t *testing.T, r *contractRig) {
			r.addVM("a", 2, 1200)
			r.addVM("b", 1, 1200)
			r.list(t)
			r.advance()
			cores := r.host.Node().Cores
			vcpus := []VCPURef{{"a", 0}, {"a", 1}, {"b", 0}}
			tids := map[int]VCPURef{}
			for _, v := range vcpus {
				tid, err := r.host.ThreadID(v.VM, v.VCPU)
				if err != nil || tid <= 0 {
					t.Fatalf("ThreadID(%v) = %d, %v", v, tid, err)
				}
				if other, dup := tids[tid]; dup {
					t.Fatalf("%v and %v share thread %d", other, v, tid)
				}
				tids[tid] = v
				core, err := r.host.LastCPU(tid)
				if err != nil || core < 0 || core >= cores {
					t.Fatalf("LastCPU(%d) = %d, %v on a %d-core node", tid, core, err, cores)
				}
			}
			r.advance()
			r.list(t)
			for want, v := range tids {
				if tid, err := r.host.ThreadID(v.VM, v.VCPU); err != nil || tid != want {
					t.Fatalf("ThreadID(%v) = %d, %v a period later, was %d", v, tid, err, want)
				}
			}
			if _, err := r.host.ThreadID("ghost", 0); err == nil {
				t.Fatal("ThreadID of an unknown VM succeeded")
			}
		}},
		// Red when: Linux.CoreFreqMHz loses its range check (the defect this
		// table found: a handle per distinct index, never pruned, and a
		// re-scan); Scripted.CoreFreqMHz checks only the upper bound.
		{"core frequency range-checks and a refusal leaves no state", func(t *testing.T, r *contractRig) {
			r.addVM("a", 1, 1200)
			r.list(t)
			cores := r.host.Node().Cores
			for _, core := range []int{0, cores - 1} {
				if mhz, err := r.host.CoreFreqMHz(core); err != nil || mhz <= 0 {
					t.Fatalf("CoreFreqMHz(%d) = %d, %v", core, mhz, err)
				}
			}
			before := r.footprint()
			for _, core := range []int{-1, cores} {
				if mhz, err := r.host.CoreFreqMHz(core); err == nil {
					t.Fatalf("CoreFreqMHz(%d) = %d on a %d-core node, want an error", core, mhz, cores)
				}
			}
			if after := r.footprint(); after != before {
				t.Fatalf("refused cores changed what the host remembers: %s, was %s", after, before)
			}
		}},
		// Red when: Sim.ClearMax writes nothing; FaultyHost.ReadMax forwards
		// vCPU 0 whatever it was asked; Sim.SetBurst returns nil.
		{"a quota written reads back, a cleared one reads NoQuota", func(t *testing.T, r *contractRig) {
			r.addVM("a", 2, 1200)
			r.list(t)
			if err := r.host.SetMax("a", 1, 25_000, 100_000); err != nil {
				t.Fatal(err)
			}
			qr, reads := r.host.(QuotaReader)
			if reads {
				if q, p, err := qr.ReadMax("a", 1); err != nil || q != 25_000 || p != 100_000 {
					t.Fatalf("ReadMax after SetMax(25000, 100000) = %d, %d, %v", q, p, err)
				}
				if q, _, err := qr.ReadMax("a", 0); err != nil || q != NoQuota {
					t.Fatalf("ReadMax of the untouched sibling = %d, %v, want NoQuota", q, err)
				}
			}
			for _, burstUs := range []int64{5_000, 0} {
				err := r.host.SetBurst("a", 1, burstUs)
				if r.noBurst && !errors.Is(err, fs.ErrNotExist) {
					t.Fatalf("SetBurst(%d) on a host without cpu.max.burst = %v, want fs.ErrNotExist", burstUs, err)
				}
				if !r.noBurst && err != nil {
					t.Fatal(err)
				}
			}
			if err := r.host.ClearMax("a", 1); err != nil {
				t.Fatal(err)
			}
			if reads {
				if q, _, err := qr.ReadMax("a", 1); err != nil || q != NoQuota {
					t.Fatalf("ReadMax after ClearMax = %d, %v, want NoQuota", q, err)
				}
			}
			if err := r.host.SetMax("ghost", 0, 25_000, 100_000); err == nil {
				t.Fatal("SetMax on an unknown VM succeeded")
			}
			if err := r.host.SetBurst("ghost", 0, 0); err == nil {
				t.Fatal("SetBurst on an unknown VM succeeded")
			}
		}},
		// Red when: Linux.ListVMs does not call pruneDeparted (the kept-open
		// descriptors of the departed VM go on answering); Scripted.SetTemplate
		// keeps the dropped vCPUs in s.vcpus.
		{"a departed VM stops answering once its departure was listed", func(t *testing.T, r *contractRig) {
			r.addVM("a", 1, 1200)
			r.addVM("b", 1, 1200)
			r.list(t)
			for _, name := range []string{"a", "b"} { // warm whatever the host caches
				if _, err := r.host.UsageUs(name, 0); err != nil {
					t.Fatal(err)
				}
				tid, err := r.host.ThreadID(name, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := r.host.LastCPU(tid); err != nil {
					t.Fatal(err)
				}
				if err := r.host.SetMax(name, 0, 50_000, 100_000); err != nil {
					t.Fatal(err)
				}
			}
			r.removeVM("a")
			r.list(t)
			if u, err := r.host.UsageUs("a", 0); err == nil {
				t.Fatalf("usage of the departed VM = %d, want an error", u)
			}
			if tid, err := r.host.ThreadID("a", 0); err == nil {
				t.Fatalf("ThreadID of the departed VM = %d, want an error", tid)
			}
			if err := r.host.SetMax("a", 0, 60_000, 100_000); err == nil {
				t.Fatal("SetMax on the departed VM succeeded")
			}
			if _, err := r.host.UsageUs("b", 0); err != nil {
				t.Fatalf("the VM that stayed: %v", err)
			}
		}},
	}
	for _, s := range subjects {
		for _, row := range rows {
			t.Run(s.name+"/"+row.name, func(t *testing.T) { row.run(t, s.rig(t)) })
		}
	}
}
