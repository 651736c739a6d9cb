package host

import (
	"errors"
	"testing"
)

func TestFailReadsIsTransient(t *testing.T) {
	m, err := New(Chetemi())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.FS.MkdirAll("/t"); err != nil {
		t.Fatal(err)
	}
	if err := m.FS.AddFile("/t/probe", "v"); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("thread died")
	m.FailReads("probe", boom, 2)
	for i := 0; i < 2; i++ {
		if _, err := m.FS.ReadFile("/t/probe"); !errors.Is(err, boom) {
			t.Fatalf("read %d: err = %v, want injected", i, err)
		}
	}
	if got, err := m.FS.ReadFile("/t/probe"); err != nil || got != "v" {
		t.Fatalf("exhausted fault still fires: %q, %v", got, err)
	}
	// Unmatched paths are never touched.
	if err := m.FS.MkdirAll("/t"); err != nil {
		t.Fatal(err)
	}
	if err := m.FS.AddFile("/t/other", "w"); err != nil {
		t.Fatal(err)
	}
	m.FailReads("probe", boom, 1)
	if _, err := m.FS.ReadFile("/t/other"); err != nil {
		t.Fatalf("unmatched path failed: %v", err)
	}
}

func TestAddFaultIgnoresNoOps(t *testing.T) {
	m, err := New(Chetemi())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.FS.MkdirAll("/t"); err != nil {
		t.Fatal(err)
	}
	if err := m.FS.AddFile("/t/f", "v"); err != nil {
		t.Fatal(err)
	}
	m.FailReads("f", nil, 5)                // nil error: ignored
	m.FailReads("f", errors.New("boom"), 0) // zero count: ignored
	if _, err := m.FS.ReadFile("/t/f"); err != nil {
		t.Fatalf("no-op fault fired: %v", err)
	}
}
