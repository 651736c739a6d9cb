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
	boom := errors.New("thread died")
	m.FailReads("probe", boom, 2)
	for i := 0; i < 2; i++ {
		if err := m.ReadFault("/t/probe"); !errors.Is(err, boom) {
			t.Fatalf("read %d: err = %v, want injected", i, err)
		}
	}
	if err := m.ReadFault("/t/probe"); err != nil {
		t.Fatalf("exhausted fault still fires: %v", err)
	}
	// Unmatched paths are never touched, and do not spend the fault.
	m.FailReads("probe", boom, 1)
	if err := m.ReadFault("/t/other"); err != nil {
		t.Fatalf("unmatched path failed: %v", err)
	}
	if err := m.ReadFault("/t/probe"); !errors.Is(err, boom) {
		t.Fatalf("fault spent by an unmatched read: %v", err)
	}
}

func TestAddFaultIgnoresNoOps(t *testing.T) {
	m, err := New(Chetemi())
	if err != nil {
		t.Fatal(err)
	}
	m.FailReads("f", nil, 5)                // nil error: ignored
	m.FailReads("f", errors.New("boom"), 0) // zero count: ignored
	if err := m.ReadFault("/t/f"); err != nil {
		t.Fatalf("no-op fault fired: %v", err)
	}
}
