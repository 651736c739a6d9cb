package cgroupfs

import (
	"fmt"
	"testing"
	"testing/quick"

	"vfreq/internal/sched"
)

func newTree(cores int) (*Tree, *sched.Scheduler) {
	s := sched.New(cores)
	return New(s), s
}

func TestCreateDuplicateFails(t *testing.T) {
	tree, _ := newTree(1)
	if _, err := tree.CreateGroup("g"); err != nil {
		t.Fatal(err)
	}
	if _, err := tree.CreateGroup("g"); err == nil {
		t.Fatal("duplicate create succeeded")
	}
	// mkdir is not recursive; CreateGroupAll is.
	if _, err := tree.CreateGroup("a/b/c"); err == nil {
		t.Fatal("recursive create succeeded")
	}
	g, err := tree.CreateGroupAll("a/b/c")
	if err != nil {
		t.Fatalf("CreateGroupAll: %v", err)
	}
	if got, err := tree.Group("a/b/c"); err != nil || got != g || g.Path() != "/a/b/c" {
		t.Fatalf("Group(a/b/c) = %v, %v; want the group at /a/b/c", got, err)
	}
}

func TestRemoveGroupCleansUp(t *testing.T) {
	tree, s := newTree(1)
	if _, err := tree.CreateGroupAll("vm/vcpu0"); err != nil {
		t.Fatal(err)
	}
	g, _ := tree.Group("vm/vcpu0")
	th := s.NewThread(g, nil)
	if err := tree.RemoveGroup("vm"); err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Group("vm"); err == nil {
		t.Fatal("group survived removal")
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
}

// Property: any valid quota/period round-trips through cpu.max's format
// ("QUOTA PERIOD\n") and the parser.
func TestQuickCPUMaxRoundTrip(t *testing.T) {
	f := func(q, p uint32) bool {
		quota := int64(q%1_000_000) + 1
		period := int64(p%1_000_000) + 1
		s := fmt.Sprintf("%d %d\n", quota, period)
		gq, gp, err := ParseCPUMax(s, 0)
		return err == nil && gq == quota && gp == period
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveUnknownGroup(t *testing.T) {
	tree, _ := newTree(1)
	if err := tree.RemoveGroup("ghost"); err == nil {
		t.Fatal("removing unknown group succeeded")
	}
	if _, err := tree.Group("ghost"); err == nil {
		t.Fatal("unknown group resolvable")
	}
}
