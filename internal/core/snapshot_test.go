package core

import (
	"encoding/json"
	"testing"
)

func TestSnapshotContents(t *testing.T) {
	h := newFakeHost()
	c := mustController(t, h, DefaultConfig())
	h.AddVM("a", 2, 1200)
	h.AddVM("b", 1, 600)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	h.Consume("a", 0, 300_000)
	h.Consume("a", 1, 500_000)
	h.Consume("b", 0, 100_000)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	s := c.Snapshot()
	if s.Step != 2 || s.Node != "fake" || s.Cores != 4 || s.MaxFreqMHz != 2400 {
		t.Fatalf("header wrong: %+v", s)
	}
	if s.CapacityUs != 4_000_000 {
		t.Fatalf("capacity = %d", s.CapacityUs)
	}
	// 2×500000 + 1×250000.
	if s.TotalGuaranteeUs != 1_250_000 {
		t.Fatalf("total guarantee = %d", s.TotalGuaranteeUs)
	}
	if len(s.VMs) != 2 || s.VMs[0].Name != "a" || len(s.VMs[0].VCPUs) != 2 {
		t.Fatalf("VM list wrong: %+v", s.VMs)
	}
	if s.VMs[0].VCPUs[0].ConsumedUs != 300_000 {
		t.Fatalf("consumed = %d", s.VMs[0].VCPUs[0].ConsumedUs)
	}
	var totalCap int64
	for _, vm := range s.VMs {
		for _, v := range vm.VCPUs {
			totalCap += v.CapUs
		}
	}
	if s.TotalCapUs != totalCap {
		t.Fatal("TotalCapUs inconsistent")
	}
	if s.MarketUs != s.CapacityUs-totalCap {
		t.Fatalf("market = %d, want %d", s.MarketUs, s.CapacityUs-totalCap)
	}
	if s.StepMicros < 0 || s.MonitorMicros < 0 {
		t.Fatal("timings negative")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	h := newFakeHost()
	c := mustController(t, h, DefaultConfig())
	h.AddVM("a", 1, 1200)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	raw, err := c.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Node != "fake" || len(back.VMs) != 1 || back.VMs[0].Name != "a" {
		t.Fatalf("round trip lost data: %+v", back)
	}
}
