package procfs

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// utimeField returns field 14 of a stat line: the 12th after the comm,
// which may itself contain spaces and parentheses.
func utimeField(line string) string {
	return strings.Fields(line[strings.LastIndex(line, ")")+1:])[11]
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

// referenceParseLastCPU is ParseStatLastCPUBytes written the plain way:
// the comm ends at the last ')', found from the end, and the fields after
// it are walked one byte at a time. FuzzParseStatLastCPU holds the word-
// at-a-time parser to it, value and error alike.
func referenceParseLastCPU(line []byte) (int, error) {
	end := -1
	for i := len(line) - 1; i >= 0; i-- {
		if line[i] == ')' {
			end = i
			break
		}
	}
	if end < 0 {
		return 0, fmt.Errorf("procfs: malformed stat line %q", line)
	}
	rest := line[end+1:]
	const want = 36
	field, i := 0, 0
	for {
		for i < len(rest) && isSpace(rest[i]) {
			i++
		}
		if i >= len(rest) {
			return 0, fmt.Errorf("procfs: stat line too short (%d fields after comm)", field)
		}
		start := i
		for i < len(rest) && !isSpace(rest[i]) {
			i++
		}
		if field == want {
			var cpu int
			for _, c := range rest[start:i] {
				if c < '0' || c > '9' || cpu > (math.MaxInt-int(c-'0'))/10 {
					return 0, fmt.Errorf("procfs: bad processor field %q", rest[start:i])
				}
				cpu = cpu*10 + int(c-'0')
			}
			return cpu, nil
		}
		field++
	}
}

// referenceAppendStat is AppendStat written the plain way: one pass per
// field after the state, zero unless it is utime or processor.
func referenceAppendStat(buf []byte, tid int, comm string, usageUs int64, lastCPU int) []byte {
	ticks := usageUs / 10_000
	cpu := lastCPU
	if cpu < 0 {
		cpu = 0
	}
	buf = strconv.AppendInt(buf, int64(tid), 10)
	buf = append(buf, " ("...)
	buf = append(buf, comm...)
	buf = append(buf, ") R"...)
	for i := 3; i < 52; i++ {
		switch i {
		case 13: // utime
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, ticks, 10)
		case 38: // processor
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(cpu), 10)
		default:
			buf = append(buf, " 0"...)
		}
	}
	return append(buf, '\n')
}

// withProcessor returns a stat line whose processor field is field.
func withProcessor(field string) []byte {
	line := FormatStat(4242, "CPU 0/KVM", 120_000, 0)
	end := strings.LastIndex(line, ")")
	fields := strings.Fields(line[end+1:])
	fields[36] = field
	return []byte(line[:end+1] + " " + strings.Join(fields, " ") + "\n")
}

// TestParseStatLastCPUOverflow: a processor field outside int is an
// error, not a wrapped core number.
func TestParseStatLastCPUOverflow(t *testing.T) {
	for _, c := range []struct {
		field string
		want  int
		ok    bool
	}{
		{"39", 39, true},
		{strconv.Itoa(math.MaxInt), math.MaxInt, true},
		{strconv.FormatUint(uint64(math.MaxInt)+1, 10), 0, false}, // wraps negative
		{"18446744073709551623", 0, false},                        // wraps to 7
		{"20000000000000000000", 0, false},
		{"99999999999999999999999", 0, false},
	} {
		for name, parse := range map[string]func([]byte) (int, error){
			"ParseStatLastCPUBytes": ParseStatLastCPUBytes,
			"referenceParseLastCPU": referenceParseLastCPU,
		} {
			got, err := parse(withProcessor(c.field))
			if (err == nil) != c.ok || got != c.want {
				t.Errorf("%s(processor %s) = %d, %v; want %d, ok %v", name, c.field, got, err, c.want, c.ok)
			}
		}
	}
}

// TestSeparatorsExact: the word mask marks a byte exactly when isSpace
// does, for every byte value at every position, whatever its neighbours
// are, so no borrow or carry leaks a mark from one byte into the next.
func TestSeparatorsExact(t *testing.T) {
	for _, fill := range []byte{0x00, ' ', '\t', '\r', 0x04, 0x0c, 0x21, 'x', 0x80, 0xff} {
		for b := 0; b < 256; b++ {
			for k := 0; k < 8; k++ {
				word := [8]byte{fill, fill, fill, fill, fill, fill, fill, fill}
				word[k] = byte(b)
				var w uint64
				for j := 7; j >= 0; j-- {
					w = w<<8 | uint64(word[j])
				}
				got := separators(w)
				for j := 0; j < 8; j++ {
					want := uint64(0)
					if isSpace(word[j]) {
						want = 0x80
					}
					if mark := got >> (8 * j) & 0xff; mark != want {
						t.Fatalf("separators(% x): byte %d marked %#x, want %#x", word, j, mark, want)
					}
				}
			}
		}
	}
}

// FuzzParseStatLastCPU: on any bytes, ParseStatLastCPUBytes returns what
// referenceParseLastCPU returns: the same core, or an error with the same
// text.
func FuzzParseStatLastCPU(f *testing.F) {
	stat := FormatStat(4242, "CPU 0/KVM", 123_450_000, 17)
	for _, seed := range []string{
		stat,
		FormatStat(1, "x", 0, -1),
		FormatStat(99999, "a) b (c))", 1, 3),     // ')' inside comm
		strings.ReplaceAll(stat, " ", "\t\r\n "), // runs of separators
		strings.ReplaceAll(stat, " 0 ", " 0\t"),
		strings.Replace(stat, " 17 ", " 1x7 ", 1),
		string(withProcessor("18446744073709551623")),
		string(withProcessor("-1")),
		stat[:len(stat)/2], // short lines
		"1 (x) R 0 0",
		"1 (x)",
		")",
		"",
		"no comm here",
		stat[:strings.LastIndex(stat, " 17 ")+3], // processor field ends the line
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(checkAgainstReference)
}

// checkAgainstReference fails t unless ParseStatLastCPUBytes(line) returns
// what referenceParseLastCPU does: the same core, or an error with the
// same text.
func checkAgainstReference(t *testing.T, line []byte) {
	got, err := ParseStatLastCPUBytes(line)
	want, wantErr := referenceParseLastCPU(line)
	if got != want || (err == nil) != (wantErr == nil) ||
		(err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("ParseStatLastCPUBytes(%q) = %d, %v; reference %d, %v", line, got, err, want, wantErr)
	}
}

// TestParseStatLastCPUMatchesReference: on generated lines the parser
// agrees with referenceParseLastCPU. The fields are 1 to 12 digits between
// runs of mixed separators, the first sometimes touching the ')', and a
// line may be cut anywhere or carry a stray letter. The widths move the
// processor field to every offset in a word, into the tail, and behind a
// field that straddles the last word boundary.
func TestParseStatLastCPUMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const seps = " \t\n\r"
	for n := 0; n < 20_000; n++ {
		line := []byte("4242 (CPU 0/KVM)")
		for f, fields := 0, 30+rng.Intn(12); f < fields; f++ {
			if f > 0 || rng.Intn(4) > 0 {
				for k := rng.Intn(3); k >= 0; k-- {
					line = append(line, seps[rng.Intn(len(seps))])
				}
			}
			for k := rng.Intn(12); k >= 0; k-- {
				line = append(line, byte('0'+rng.Intn(10)))
			}
		}
		if rng.Intn(4) == 0 {
			line = line[:rng.Intn(len(line)+1)]
		}
		if rng.Intn(8) == 0 && len(line) > 0 {
			line[rng.Intn(len(line))] = 'x'
		}
		checkAgainstReference(t, line)
	}
}

// TestAppendStatMatchesReference: AppendStat renders the same bytes as
// referenceAppendStat, appended to whatever buf already holds, over random
// tids, comms, usages and cores, cpu = -1 included.
func TestAppendStatMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabet := []byte("CPU 0/KVM()\t\n x")
	for n := 0; n < 2000; n++ {
		comm := make([]byte, rng.Intn(20))
		for i := range comm {
			comm[i] = alphabet[rng.Intn(len(alphabet))]
		}
		tid := rng.Intn(1 << 22)
		usage := rng.Int63() >> rng.Intn(63)
		cpu := rng.Intn(1<<uint(rng.Intn(20))) - 1
		switch n {
		case 0:
			cpu = -1
		case 1:
			tid, usage, cpu = -7, math.MinInt64, math.MinInt
		case 2:
			tid, usage, cpu = math.MaxInt, math.MaxInt64, math.MaxInt
		}
		prefix := []byte(strconv.Itoa(n))
		got := AppendStat(append([]byte(nil), prefix...), tid, string(comm), usage, cpu)
		want := referenceAppendStat(append([]byte(nil), prefix...), tid, string(comm), usage, cpu)
		if string(got) != string(want) {
			t.Fatalf("AppendStat(%d, %q, %d, %d) =\n%q\nreference\n%q", tid, comm, usage, cpu, got, want)
		}
	}
}

// benchLine is a Table II vCPU thread's stat line: a comm with a space and
// a slash, a few minutes of utime, a two-digit core.
var benchLine = []byte(FormatStat(4242, "CPU 3/KVM", 123_450_000, 37))

// BenchmarkParseStatLastCPU is the placement read's parse, once per vCPU
// per period on both backends.
func BenchmarkParseStatLastCPU(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseStatLastCPUBytes(benchLine); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendStat is the simulator's render of the same line into a
// reused buffer.
func BenchmarkAppendStat(b *testing.B) {
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendStat(buf[:0], 4242, "CPU 3/KVM", 123_450_000, 37)
	}
}
