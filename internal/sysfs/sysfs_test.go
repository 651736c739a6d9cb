package sysfs

import (
	"math"
	"testing"
)

func TestParseErrors(t *testing.T) {
	if _, err := ParseKHzBytes([]byte("fast")); err == nil {
		t.Fatal("ParseKHzBytes accepted garbage")
	}
	if _, err := ParseKHzBytes([]byte("-3")); err == nil {
		t.Fatal("ParseKHzBytes accepted negative")
	}
}

// TestParseOnline: the core count is the highest online index plus one,
// whatever shape of cpulist the kernel prints — a host with a CPU offlined
// or hot-unplugged lists a gap.
func TestParseOnline(t *testing.T) {
	for content, want := range map[string]int{
		"0-39\n":     40,
		"0\n":        1,
		"0-3,8-11\n": 12,
		"0,2\n":      3,
		"0,2-5\n":    6,
	} {
		if got, err := ParseOnline(content); err != nil || got != want {
			t.Errorf("ParseOnline(%q) = %d, %v; want %d", content, got, err, want)
		}
	}
	for _, bad := range []string{"", "\n", "a-b", "x", "3-1", "0-"} {
		if got, err := ParseOnline(bad); err == nil {
			t.Errorf("ParseOnline(%q) = %d, want an error", bad, got)
		}
	}
}

func TestParseKHzBytes(t *testing.T) {
	khz, err := ParseKHzBytes([]byte("2200000\n"))
	if err != nil || khz != 2200000 {
		t.Fatalf("ParseKHzBytes = %d, %v", khz, err)
	}
	for _, bad := range []string{"", "\n", "fast", "-3", "12 34"} {
		if _, err := ParseKHzBytes([]byte(bad)); err == nil {
			t.Fatalf("ParseKHzBytes accepted %q", bad)
		}
	}
	content := []byte("2200000\n")
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ParseKHzBytes(content); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ParseKHzBytes allocates %.1f/op", allocs)
	}
}

// TestParseKHzBytesOverflow: a frequency outside int64 is an error, not a
// wrapped value.
func TestParseKHzBytesOverflow(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int64
		ok   bool
	}{
		{"9223372036854775807\n", math.MaxInt64, true},
		{"9223372036854775808\n", 0, false},
		{"18446744073709551623\n", 0, false}, // wraps to 7
		{"20000000000000000000\n", 0, false}, // wraps to 1553255926290448384
		{"99999999999999999999999\n", 0, false},
	} {
		got, err := ParseKHzBytes([]byte(c.in))
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseKHzBytes(%q) = %d, %v; want %d, ok %v", c.in, got, err, c.want, c.ok)
		}
	}
}
