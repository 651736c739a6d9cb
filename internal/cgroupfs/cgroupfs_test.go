package cgroupfs

import (
	"fmt"
	"testing"
	"testing/quick"

	"vfreq/internal/sched"
)

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
