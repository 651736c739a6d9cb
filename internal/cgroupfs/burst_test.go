package cgroupfs

import (
	"strings"
	"testing"
)

func TestCPUMaxBurstFile(t *testing.T) {
	tree, s, fs := newTree(t, 1)
	g, err := tree.CreateGroup("vm")
	if err != nil {
		t.Fatal(err)
	}
	// Burst requires a quota first, as on a real kernel.
	if err := fs.WriteFile(DefaultMount+"/vm/cpu.max.burst", "10000"); err == nil {
		t.Fatal("burst without quota accepted")
	}
	if err := fs.WriteFile(DefaultMount+"/vm/cpu.max", "50000 100000"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(DefaultMount+"/vm/cpu.max.burst", "40000"); err != nil {
		t.Fatal(err)
	}
	got, _ := fs.ReadFile(DefaultMount + "/vm/cpu.max.burst")
	if strings.TrimSpace(got) != "40000" {
		t.Fatalf("cpu.max.burst = %q", got)
	}
	if g.BurstUs != 40_000 {
		t.Fatalf("group burst = %d", g.BurstUs)
	}
	for _, bad := range []string{"x", "-1", "60000" /* > quota */} {
		if err := fs.WriteFile(DefaultMount+"/vm/cpu.max.burst", bad); err == nil {
			t.Fatalf("cpu.max.burst accepted %q", bad)
		}
	}
	_ = s
}

func TestCPUStatIncludesBurstCounters(t *testing.T) {
	tree, s, fs := newTree(t, 1)
	g, _ := tree.CreateGroup("vm")
	if err := g.SetQuota(50_000, 100_000); err != nil {
		t.Fatal(err)
	}
	if err := g.SetBurst(40_000); err != nil {
		t.Fatal(err)
	}
	// Idle window builds reserve, saturated window overruns it.
	active := false
	s.NewThread(g, func(now, dt int64) float64 {
		if active {
			return 1
		}
		return 0
	})
	for i := 0; i < 10; i++ {
		s.Tick(10_000)
	}
	active = true
	for i := 0; i < 20; i++ {
		s.Tick(10_000)
	}
	content, _ := fs.ReadFile(DefaultMount + "/vm/cpu.stat")
	nr, err := ParseCPUStatBytes([]byte(content), "nr_bursts")
	if err != nil {
		t.Fatalf("nr_bursts missing: %v", err)
	}
	used, err := ParseCPUStatBytes([]byte(content), "burst_usec")
	if err != nil {
		t.Fatalf("burst_usec missing: %v", err)
	}
	if nr == 0 || used != 40_000 {
		t.Fatalf("burst counters nr=%d used=%d, want used=40000", nr, used)
	}
}
