package cgroupfs

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"vfreq/internal/memfs"
	"vfreq/internal/sched"
)

func newTree(t *testing.T, cores int) (*Tree, *sched.Scheduler, *memfs.FS) {
	t.Helper()
	fs := memfs.New()
	s := sched.New(cores)
	tree, err := New(fs, s, DefaultMount)
	if err != nil {
		t.Fatal(err)
	}
	return tree, s, fs
}

func TestRootFilesExist(t *testing.T) {
	_, _, fs := newTree(t, 2)
	for _, f := range []string{"cpu.max", "cpu.max.burst", "cpu.stat", "cgroup.threads"} {
		if _, err := fs.ReadFile(DefaultMount + "/" + f); err != nil {
			t.Fatalf("missing root file %s", f)
		}
	}
	got, err := fs.ReadFile(DefaultMount + "/cpu.max")
	if err != nil || got != "max 100000\n" {
		t.Fatalf("root cpu.max = %q, %v", got, err)
	}
}

func TestCreateGroupFiles(t *testing.T) {
	tree, _, fs := newTree(t, 2)
	if _, err := tree.CreateGroup("machine.slice"); err != nil {
		t.Fatal(err)
	}
	if _, err := tree.CreateGroup("machine.slice/vm0"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile(DefaultMount + "/machine.slice/vm0/cpu.max"); err != nil {
		t.Fatal("nested cpu.max missing")
	}
	// mkdir is not recursive.
	if _, err := tree.CreateGroup("a/b/c"); err == nil {
		t.Fatal("recursive create succeeded")
	}
	if _, err := tree.CreateGroupAll("a/b/c"); err != nil {
		t.Fatalf("CreateGroupAll: %v", err)
	}
	if _, err := fs.ReadFile(DefaultMount + "/a/b/c/cpu.stat"); err != nil {
		t.Fatal("CreateGroupAll did not create files")
	}
}

func TestCreateDuplicateFails(t *testing.T) {
	tree, _, _ := newTree(t, 1)
	if _, err := tree.CreateGroup("g"); err != nil {
		t.Fatal(err)
	}
	if _, err := tree.CreateGroup("g"); err == nil {
		t.Fatal("duplicate create succeeded")
	}
}

func TestCPUMaxWriteControlsQuota(t *testing.T) {
	tree, s, fs := newTree(t, 1)
	g, err := tree.CreateGroup("vm")
	if err != nil {
		t.Fatal(err)
	}
	th := s.NewThread(g, nil)
	if err := fs.WriteFile(DefaultMount+"/vm/cpu.max", "25000 100000"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		s.Tick(10_000)
	}
	if th.UsageUs != 250_000 {
		t.Fatalf("usage = %d, want 250000 (25%% quota over 1 s)", th.UsageUs)
	}
	// Lift the cap.
	if err := fs.WriteFile(DefaultMount+"/vm/cpu.max", "max"); err != nil {
		t.Fatal(err)
	}
	got, _ := fs.ReadFile(DefaultMount + "/vm/cpu.max")
	if got != "max 100000\n" {
		t.Fatalf("cpu.max after reset = %q", got)
	}
}

func TestCPUMaxRejectsGarbage(t *testing.T) {
	_, _, fs := newTree(t, 1)
	for _, bad := range []string{"", "a b c", "-5", "0", "100 0", "100 -1", "12 bob"} {
		if err := fs.WriteFile(DefaultMount+"/cpu.max", bad); err == nil {
			t.Fatalf("cpu.max accepted %q", bad)
		}
	}
}

func TestCPUStatContents(t *testing.T) {
	tree, s, fs := newTree(t, 1)
	g, _ := tree.CreateGroup("vm")
	s.NewThread(g, nil)
	s.Tick(10_000)
	content, err := fs.ReadFile(DefaultMount + "/vm/cpu.stat")
	if err != nil {
		t.Fatal(err)
	}
	usage, err := ParseCPUStatBytes([]byte(content), "usage_usec")
	if err != nil {
		t.Fatal(err)
	}
	if usage != 10_000 {
		t.Fatalf("usage_usec = %d, want 10000", usage)
	}
	if _, err := ParseCPUStatBytes([]byte(content), "nr_throttled"); err != nil {
		t.Fatalf("nr_throttled missing: %v", err)
	}
	if _, err := ParseCPUStatBytes([]byte(content), "no_such_key"); err == nil {
		t.Fatal("unknown key parsed")
	}
}

func TestCgroupThreadsListsTIDs(t *testing.T) {
	tree, s, fs := newTree(t, 1)
	g, _ := tree.CreateGroup("vm")
	t1 := s.NewThread(g, nil)
	t2 := s.NewThread(g, nil)
	content, _ := fs.ReadFile(DefaultMount + "/vm/cgroup.threads")
	if want := fmt.Sprintf("%d\n%d\n", t1.ID, t2.ID); content != want {
		t.Fatalf("cgroup.threads = %q, want %q", content, want)
	}
	first, n, err := ParseSingleTID([]byte(content))
	if err != nil || first != t1.ID || n != 2 {
		t.Fatalf("ParseSingleTID = %d, %d, %v; want %d, 2", first, n, err, t1.ID)
	}
}

func TestRemoveGroupCleansUp(t *testing.T) {
	tree, s, fs := newTree(t, 1)
	if _, err := tree.CreateGroupAll("vm/vcpu0"); err != nil {
		t.Fatal(err)
	}
	g, _ := tree.Group("vm/vcpu0")
	th := s.NewThread(g, nil)
	if err := tree.RemoveGroup("vm"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile(DefaultMount + "/vm"); !errors.Is(err, memfs.ErrNotExist) {
		t.Fatal("directory survived removal")
	}
	if _, err := tree.Group("vm/vcpu0"); err == nil {
		t.Fatal("nested group still resolvable")
	}
	s.Tick(10_000)
	if th.UsageUs != 0 {
		t.Fatal("thread of removed group ran")
	}
	if err := tree.RemoveGroup(""); err == nil {
		t.Fatal("removed root")
	}
}

func TestParseCPUMaxRoundTrip(t *testing.T) {
	q, p, err := ParseCPUMax("max 250000", 100000)
	if err != nil || q != sched.NoQuota || p != 250000 {
		t.Fatalf("ParseCPUMax(max 250000) = %d, %d, %v", q, p, err)
	}
	q, p, err = ParseCPUMax("42000", 100000)
	if err != nil || q != 42000 || p != 100000 {
		t.Fatalf("ParseCPUMax(42000) = %d, %d, %v", q, p, err)
	}
	if FormatCPUMax(sched.NoQuota, 100000) != "max 100000\n" {
		t.Fatal("FormatCPUMax(NoQuota) wrong")
	}
	if FormatCPUMax(500, 1000) != "500 1000\n" {
		t.Fatal("FormatCPUMax(500,1000) wrong")
	}
}

// Property: any valid quota/period round-trips through format+parse.
func TestQuickCPUMaxRoundTrip(t *testing.T) {
	f := func(q, p uint32) bool {
		quota := int64(q%1_000_000) + 1
		period := int64(p%1_000_000) + 1
		s := FormatCPUMax(quota, period)
		gq, gp, err := ParseCPUMax(s, 0)
		return err == nil && gq == quota && gp == period
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveUnknownGroup(t *testing.T) {
	tree, _, _ := newTree(t, 1)
	if err := tree.RemoveGroup("ghost"); err == nil {
		t.Fatal("removing unknown group succeeded")
	}
	if _, err := tree.Group("ghost"); err == nil {
		t.Fatal("unknown group resolvable")
	}
}
