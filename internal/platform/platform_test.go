package platform

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"vfreq/internal/host"
	"vfreq/internal/vm"
	"vfreq/internal/workload"
)

func newSim(t *testing.T) (*Sim, *vm.Manager) {
	t.Helper()
	m, err := host.New(host.Chetemi())
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := vm.NewManager(m)
	if err != nil {
		t.Fatal(err)
	}
	return NewSim(mgr), mgr
}

func TestSimNode(t *testing.T) {
	s, _ := newSim(t)
	n := s.Node()
	if n.Name != "chetemi" || n.Cores != 40 || n.MaxFreqMHz != 2400 {
		t.Fatalf("Node = %+v", n)
	}
}

// The path maps follow the live VM set: a node that churns VMs for
// 1000 cycles (new names, new thread ids every time, plus a shrink) ends
// with exactly the entries of the vCPUs it still runs.
func TestSimPathMemoBounded(t *testing.T) {
	s, mgr := newSim(t)
	read := func() {
		vms, err := s.ListVMs()
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vms {
			for j := 0; j < v.VCPUs; j++ {
				tid, err := s.ThreadID(v.Name, j)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.LastCPU(tid); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if _, err := mgr.Provision("resident", vm.Large(), nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("churn%d", i)
		if _, err := mgr.Provision(name, vm.Small(), nil); err != nil {
			t.Fatal(err)
		}
		read()
		if got := len(s.vcpuPaths); got != 6 || len(s.tidPaths) != 6 {
			t.Fatalf("cycle %d: %d vCPU and %d thread entries with 6 live vCPUs", i, got, len(s.tidPaths))
		}
		if err := mgr.Destroy(name); err != nil {
			t.Fatal(err)
		}
		read()
		if got := len(s.vcpuPaths); got != 4 || len(s.tidPaths) != 4 {
			t.Fatalf("cycle %d: %d vCPU and %d thread entries with 4 live vCPUs", i, got, len(s.tidPaths))
		}
	}
	if err := mgr.Reconfigure("resident", vm.Small(), nil); err != nil { // 4 → 2 vCPUs
		t.Fatal(err)
	}
	read()
	if len(s.vcpuPaths) != 2 || len(s.tidPaths) != 2 {
		t.Fatalf("after shrink: %d vCPU and %d thread entries, want 2 and 2", len(s.vcpuPaths), len(s.tidPaths))
	}
}

func TestSimUsageAndQuota(t *testing.T) {
	s, mgr := newSim(t)
	if _, err := mgr.Provision("a", vm.Small(),
		[]workload.Source{workload.Busy(), workload.Busy()}); err != nil {
		t.Fatal(err)
	}
	mgr.Machine().Advance(1_000_000)
	u, err := s.UsageUs("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if u != 1_000_000 {
		t.Fatalf("usage = %d, want 1000000 (uncontended)", u)
	}
	// Apply a 25% cap through the interface and verify it bites.
	for j := 0; j < 2; j++ {
		if err := s.SetMax("a", j, 25_000, 100_000); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := s.UsageUs("a", 0)
	mgr.Machine().Advance(1_000_000)
	after, _ := s.UsageUs("a", 0)
	if got := after - before; got != 250_000 {
		t.Fatalf("capped usage delta = %d, want 250000", got)
	}
	// Clear and verify it no longer bites.
	if err := s.ClearMax("a", 0); err != nil {
		t.Fatal(err)
	}
	before, _ = s.UsageUs("a", 0)
	mgr.Machine().Advance(1_000_000)
	after, _ = s.UsageUs("a", 0)
	if got := after - before; got != 1_000_000 {
		t.Fatalf("uncapped usage delta = %d, want 1000000", got)
	}
}

func TestSimThreadPlacementAndFreq(t *testing.T) {
	s, mgr := newSim(t)
	if _, err := mgr.Provision("a", vm.Small(),
		[]workload.Source{workload.Busy(), workload.Busy()}); err != nil {
		t.Fatal(err)
	}
	mgr.Machine().Advance(500_000)
	tid, err := s.ThreadID("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	core, err := s.LastCPU(tid)
	if err != nil {
		t.Fatal(err)
	}
	if core < 0 || core >= 40 {
		t.Fatalf("core %d out of range", core)
	}
	f, err := s.CoreFreqMHz(core)
	if err != nil {
		t.Fatal(err)
	}
	spec := mgr.Machine().Spec()
	if f < spec.MinMHz || f > spec.TurboMHz {
		t.Fatalf("freq %d outside envelope", f)
	}
}

// TestSimFaultArmedElsewhere: host.Machine's read faults are armed and
// cleared from another goroutine between two Sim reads, and the next
// matching read sees the change. A count-1 fault fails exactly one
// matching read and no other, a persistent one every matching read until
// ClearFileFaults. Last, arming and clearing race a run of warm reads,
// for the race detector.
func TestSimFaultArmedElsewhere(t *testing.T) {
	s, mgr := newSim(t)
	if _, err := mgr.Provision("a", vm.Small(),
		[]workload.Source{workload.Busy(), workload.Busy()}); err != nil {
		t.Fatal(err)
	}
	m := mgr.Machine()
	m.Advance(100_000)
	tid, err := s.ThreadID("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	elsewhere := func(f func()) {
		done := make(chan struct{})
		go func() { f(); close(done) }()
		<-done
	}
	stat := fmt.Sprintf("/proc/%d/", tid)
	boom := errors.New("thread died")
	lastCPU := func() error { _, err := s.LastCPU(tid); return err }
	usage := func() error { _, err := s.UsageUs("a", 0); return err }
	for i, c := range []struct {
		arm  func()
		read func() error
		fail bool
	}{
		{nil, lastCPU, false}, // warm: the path is cached
		{func() { m.FailReads(stat, boom, 1) }, usage, false},
		{nil, lastCPU, true},
		{nil, lastCPU, false}, // the count-1 fault fired once
		{func() { m.FailReads(stat, boom, -1) }, lastCPU, true},
		{nil, lastCPU, true},
		{nil, usage, false},
		{m.ClearFileFaults, lastCPU, false},
		{func() { m.FailReads("cpu.stat", boom, 1); m.ClearFileFaults() }, usage, false},
	} {
		if c.arm != nil {
			elsewhere(c.arm)
		}
		if err := c.read(); (err != nil) != c.fail || (c.fail && !errors.Is(err, boom)) {
			t.Fatalf("read %d: err = %v, want failure %v", i, err, c.fail)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			m.FailReads("no such file", boom, 1)
			m.ClearFileFaults()
		}
	}()
	for i := 0; i < 200; i++ {
		if err := lastCPU(); err != nil {
			t.Fatal(err)
		}
	}
	<-done
}

// The Linux backend needs a real cgroup v2 + libvirt host; skip unless
// present.
func TestLinuxBackendOnRealHost(t *testing.T) {
	if _, err := os.Stat("/sys/fs/cgroup/machine.slice"); err != nil {
		t.Skip("no machine.slice on this host")
	}
	l, err := NewLinux(nil)
	if err != nil {
		t.Skipf("linux backend unavailable: %v", err)
	}
	if l.Cores <= 0 || l.MaxFreqMHz <= 0 {
		t.Fatalf("bad node info: %+v", l.Node())
	}
	if _, err := l.ListVMs(); err != nil {
		t.Fatal(err)
	}
}

// TestTopologyCoreNodes covers both Topology implementations: the
// simulator answering its spec's layout (host.Spec.CoreNodes), and the
// Linux backend parsing cpulist ranges and lists from a node tree on disk
// — where a tree that is missing, names no node, or holds a malformed
// cpulist is an error, never a partly filled map.
func TestTopologyCoreNodes(t *testing.T) {
	s, _ := newSim(t)
	got, err := s.CoreNodes()
	if err != nil || len(got) != 40 {
		t.Fatalf("Sim.CoreNodes = %v, %v; want 40 entries", got, err)
	}
	for cpu, node := range got {
		if want := cpu / 20; node != want {
			t.Fatalf("Sim: cpu %d on node %d, want %d (chetemi: 40 CPUs, 2 nodes)", cpu, node, want)
		}
	}

	for _, tc := range []struct {
		name  string
		files map[string]string // path under the node root → content
		want  []int             // nil = an error is expected
	}{
		{"ranges and lists", map[string]string{
			"online":        "0-1\n",
			"node0/cpulist": "0-1,4\n",
			"node1/cpulist": "2-3,5\n",
		}, []int{0, 0, 1, 1, 0, 1}},
		{"single cpu", map[string]string{"node0/cpulist": "0-2,4-5\n", "node1/cpulist": "3\n"}, []int{0, 0, 0, 1, 0, 0}},
		{"missing tree", nil, nil},
		{"no node directory", map[string]string{"online": "0\n"}, nil},
		{"garbled cpulist", map[string]string{"node0/cpulist": "0-2\n", "node1/cpulist": "3-x\n"}, nil},
		{"node without cpulist", map[string]string{"node0/cpulist": "0-5\n", "node1/meminfo": "\n"}, nil},
	} {
		root := filepath.Join(t.TempDir(), "node")
		for path, content := range tc.files {
			full := filepath.Join(root, path)
			if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		l := &Linux{Cores: 6, SysNUMARoot: root}
		got, err := l.CoreNodes()
		if tc.want == nil {
			if err == nil {
				t.Errorf("Linux, %s: CoreNodes = %v, want an error", tc.name, got)
			}
			continue
		}
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("Linux, %s: CoreNodes = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
}
