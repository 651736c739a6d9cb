package procfs

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"vfreq/internal/memfs"
	"vfreq/internal/sched"
)

func TestRegisterAndRead(t *testing.T) {
	fs := memfs.New()
	s := sched.New(2)
	tab, err := New(fs, Mount)
	if err != nil {
		t.Fatal(err)
	}
	th := s.NewThread(nil, nil)
	if err := tab.Register(th, "CPU 0/KVM"); err != nil {
		t.Fatal(err)
	}
	s.Tick(10_000)
	line, err := fs.ReadFile(fmt.Sprintf("/proc/%d/stat", th.ID))
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := ParseStatLastCPUBytes([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if cpu != th.LastCPU {
		t.Fatalf("parsed cpu %d, thread LastCPU %d", cpu, th.LastCPU)
	}
	if ticks := utimeField(line); ticks != "1" { // 10 ms = 1 tick at USER_HZ=100
		t.Fatalf("utime ticks = %s, want 1", ticks)
	}
	if comm := commField(line); comm != "CPU 0/KVM" {
		t.Fatalf("comm = %q", comm)
	}
}

// commField returns field 2 of a stat line without its parentheses.
func commField(line string) string {
	return line[strings.Index(line, "(")+1 : strings.LastIndex(line, ")")]
}

// utimeField returns field 14 of a stat line: the 12th after the comm,
// which may itself contain spaces and parentheses.
func utimeField(line string) string {
	return strings.Fields(line[strings.LastIndex(line, ")")+1:])[11]
}

func TestUnregister(t *testing.T) {
	fs := memfs.New()
	s := sched.New(1)
	tab, _ := New(fs, Mount)
	th := s.NewThread(nil, nil)
	if err := tab.Register(th, "x"); err != nil {
		t.Fatal(err)
	}
	if err := tab.Unregister(th.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile(fmt.Sprintf("/proc/%d", th.ID)); !errors.Is(err, memfs.ErrNotExist) {
		t.Fatal("proc dir survived unregister")
	}
}

func TestFormatStatFieldCount(t *testing.T) {
	line := FormatStat(42, "qemu", 120_000, 3)
	// comm has no spaces here, so fields split cleanly.
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) != 52 {
		t.Fatalf("stat has %d fields, want 52", len(fields))
	}
	if fields[0] != "42" || fields[1] != "(qemu)" || fields[2] != "R" {
		t.Fatalf("header fields wrong: %v", fields[:3])
	}
	if fields[13] != "12" {
		t.Fatalf("utime = %s, want 12", fields[13])
	}
	if fields[38] != "3" {
		t.Fatalf("processor = %s, want 3", fields[38])
	}
}

func TestParseHandlesSpacesInComm(t *testing.T) {
	line := FormatStat(7, "CPU 0/KVM", 0, 5)
	cpu, err := ParseStatLastCPUBytes([]byte(line))
	if err != nil || cpu != 5 {
		t.Fatalf("cpu = %d, %v", cpu, err)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"not a stat line",
		"1 (x) R 0 0",
		strings.Replace(FormatStat(1, "x", 0, 3), " 3 ", " x ", 1), // non-numeric processor
	} {
		if _, err := ParseStatLastCPUBytes([]byte(bad)); err == nil {
			t.Fatalf("parsed %q", bad)
		}
	}
}

func TestNegativeLastCPUReportedAsZero(t *testing.T) {
	line := FormatStat(1, "x", 0, -1)
	cpu, err := ParseStatLastCPUBytes([]byte(line))
	if err != nil || cpu != 0 {
		t.Fatalf("cpu = %d, %v; want 0", cpu, err)
	}
}

// Property: format → parse round-trips the processor and utime fields for
// any comm string, including parentheses and spaces.
func TestQuickStatRoundTrip(t *testing.T) {
	f := func(tid uint16, comm string, usage uint32, cpu uint8) bool {
		if strings.ContainsAny(comm, "\n") {
			comm = "x"
		}
		line := FormatStat(int(tid), comm+")", int64(usage), int(cpu))
		got, err := ParseStatLastCPUBytes([]byte(line))
		return err == nil && got == int(cpu) &&
			utimeField(line) == fmt.Sprint(int64(usage)/10_000)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseStatLastCPUBytesErrors(t *testing.T) {
	if _, err := ParseStatLastCPUBytes([]byte("no comm here")); err == nil {
		t.Fatal("malformed line parsed")
	}
	if _, err := ParseStatLastCPUBytes([]byte("1 (x) R 0 0")); err == nil {
		t.Fatal("short line parsed")
	}
}
