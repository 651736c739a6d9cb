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
	if s.Version != SnapshotVersion || s.Step != 2 || s.Node != "fake" || s.Cores != 4 ||
		s.MaxFreqMHz != 2400 || s.PeriodUs != 1_000_000 {
		t.Fatalf("header wrong: %+v", s)
	}
	if len(s.VMs) != 2 || s.VMs[0].Name != "a" || len(s.VMs[0].VCPUs) != 2 {
		t.Fatalf("VM list wrong: %+v", s.VMs)
	}
	if s.VMs[0].VCPUs[0].ConsumedUs != 300_000 {
		t.Fatalf("consumed = %d", s.VMs[0].VCPUs[0].ConsumedUs)
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
