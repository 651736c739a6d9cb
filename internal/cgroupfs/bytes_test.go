package cgroupfs

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"vfreq/internal/sched"
)

func TestParseCPUStatBytes(t *testing.T) {
	content := []byte("usage_usec 123456\nuser_usec 123000\nsystem_usec 456\nnr_periods 9\n")
	for key, want := range map[string]int64{
		"usage_usec": 123456, "user_usec": 123000, "system_usec": 456, "nr_periods": 9,
	} {
		got, err := ParseCPUStatBytes(content, key)
		if err != nil || got != want {
			t.Fatalf("ParseCPUStatBytes(%s) = %d, %v; want %d", key, got, err, want)
		}
	}
	if _, err := ParseCPUStatBytes(content, "throttled_usec"); err == nil {
		t.Fatal("missing key parsed")
	}
	if _, err := ParseCPUStatBytes([]byte("usage_usec abc\n"), "usage_usec"); err == nil {
		t.Fatal("garbage value parsed")
	}
}

func TestParseSingleTID(t *testing.T) {
	tid, n, err := ParseSingleTID([]byte("4242\n"))
	if err != nil || tid != 4242 || n != 1 {
		t.Fatalf("got %d, %d, %v", tid, n, err)
	}
	if _, n, err := ParseSingleTID([]byte("1\n2\n3\n")); err != nil || n != 3 {
		t.Fatalf("multi: n=%d err=%v", n, err)
	}
	if _, n, err := ParseSingleTID([]byte("")); err != nil || n != 0 {
		t.Fatalf("empty: n=%d err=%v", n, err)
	}
	if _, n, err := ParseSingleTID([]byte("\n\n")); err != nil || n != 0 {
		t.Fatalf("blank: n=%d err=%v", n, err)
	}
	if _, _, err := ParseSingleTID([]byte("abc\n")); err == nil {
		t.Fatal("garbage tid parsed")
	}
}

// TestParseInt64BytesOverflow: a value outside int64 is refused by both
// callers of parseInt64Bytes, not wrapped into a plausible number.
func TestParseInt64BytesOverflow(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int64
		ok   bool
	}{
		{"9223372036854775807", math.MaxInt64, true},
		{"-9223372036854775807", -math.MaxInt64, true},
		{"9223372036854775808", 0, false},
		{"18446744073709551623", 0, false}, // wraps to 7
		{"20000000000000000000", 0, false}, // wraps to 1553255926290448384
		{"-20000000000000000000", 0, false},
		{"99999999999999999999999", 0, false},
	} {
		got, err := ParseCPUStatBytes([]byte("usage_usec "+c.in+"\n"), "usage_usec")
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseCPUStatBytes(usage_usec %s) = %d, %v; want %d, ok %v", c.in, got, err, c.want, c.ok)
		}
		wantN := 0
		if c.ok {
			wantN = 1
		}
		tid, n, err := ParseSingleTID([]byte(c.in + "\n"))
		if (err == nil) != c.ok || int64(tid) != c.want || n != wantN {
			t.Errorf("ParseSingleTID(%s) = %d, %d, %v; want %d, ok %v", c.in, tid, n, err, c.want, c.ok)
		}
	}
}

func TestParseCPUStatBytesZeroAlloc(t *testing.T) {
	content := []byte("usage_usec 123456\nuser_usec 123000\n")
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ParseCPUStatBytes(content, "usage_usec"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ParseCPUStatBytes allocates %.1f/op", allocs)
	}
}

// parseCPUMaxFields is ParseCPUMax as it was written over strings.Fields,
// kept as the reference for the in-place split.
func parseCPUMaxFields(s string, currentPeriod int64) (quotaUs, periodUs int64, err error) {
	fields := strings.Fields(s)
	if len(fields) == 0 || len(fields) > 2 {
		return 0, 0, fmt.Errorf("cgroupfs: malformed cpu.max write %q", s)
	}
	periodUs = currentPeriod
	if len(fields) == 2 {
		periodUs, err = strconv.ParseInt(fields[1], 10, 64)
		if err != nil || periodUs <= 0 {
			return 0, 0, fmt.Errorf("cgroupfs: bad period in %q", s)
		}
	}
	if fields[0] == "max" {
		return sched.NoQuota, periodUs, nil
	}
	quotaUs, err = strconv.ParseInt(fields[0], 10, 64)
	if err != nil || quotaUs <= 0 {
		return 0, 0, fmt.Errorf("cgroupfs: bad quota in %q", s)
	}
	return quotaUs, periodUs, nil
}

// TestParseCPUMaxMatchesFields holds ParseCPUMax to the strings.Fields
// form it replaced: the same values, and the same error text, on valid
// writes, on every kind of malformed one and on the Unicode spaces Fields
// splits at.
func TestParseCPUMaxMatchesFields(t *testing.T) {
	for _, in := range []string{
		"max", "max 250000", "42000", "42000 100000", "25000 100000\n", "  7\t 9  ", "\v5\f6\r",
		"", " ", "\n", "1 2 3", "max max", "0 100", "-5 100", "5 0", "5 -1", "5 x", "x 5", "5x",
		"9223372036854775807 1", "9223372036854775808 1", "5\u00a06", "5\u20286", "5\u0085 6", "5\x85 6",
		"\u3000max\u3000100\u3000", "max\u00a0", "5\xff6", "\u00a0",
	} {
		gq, gp, gerr := ParseCPUMax(in, 100_000)
		wq, wp, werr := parseCPUMaxFields(in, 100_000)
		if gq != wq || gp != wp || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Errorf("ParseCPUMax(%q) = %d, %d, %v; the Fields form gives %d, %d, %v", in, gq, gp, gerr, wq, wp, werr)
		}
	}
}

// TestParseCPUMaxZeroAlloc: a valid cpu.max write parses without
// allocating, as every quota the simulated controller writes does.
func TestParseCPUMaxZeroAlloc(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := ParseCPUMax("25000 100000", 100_000); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ParseCPUMax allocates %.1f/op", allocs)
	}
}
