package cgroupfs

import "testing"

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
