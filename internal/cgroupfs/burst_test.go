package cgroupfs

import (
	"fmt"
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

func TestCPUPressureFile(t *testing.T) {
	tree, s, fs := newTree(t, 1)
	g, _ := tree.CreateGroup("vm")
	if err := g.SetQuota(10_000, 100_000); err != nil {
		t.Fatal(err)
	}
	s.NewThread(g, nil)
	for i := 0; i < 2000; i++ { // 20 s of heavy throttling
		s.Tick(10_000)
	}
	content, err := fs.ReadFile(DefaultMount + "/vm/cpu.pressure")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(content), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "some avg10=") ||
		!strings.HasPrefix(lines[1], "full avg10=") {
		t.Fatalf("cpu.pressure format wrong:\n%s", content)
	}
	var kind string
	var a10, a60, a300 float64
	var total int64
	if _, err := fmt.Sscanf(lines[0], "%s avg10=%f avg60=%f avg300=%f total=%d",
		&kind, &a10, &a60, &a300, &total); err != nil {
		t.Fatalf("parsing %q: %v", lines[0], err)
	}
	if a10 < 50 || a10 > 100 {
		t.Fatalf("avg10 = %v%%, want high pressure", a10)
	}
	if total <= 0 {
		t.Fatal("total stall time missing")
	}
}
