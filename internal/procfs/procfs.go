// Package procfs emulates the subset of /proc the virtual-frequency
// controller reads: /proc/<tid>/stat, whose 39th field (`task_cpu`) is the
// identifier of the core the thread last ran on. The controller combines
// it with the core's scaling_cur_freq to estimate a vCPU's virtual
// frequency.
//
// This placement read happens once per vCPU per period, so its two ends
// are built for it. AppendStat renders a line into a caller's buffer from
// constant runs of zero fields around the three live ones.
// ParseStatLastCPUBytes, which platform.Linux uses on the kernel's file as
// well, finds the comm's closing ')' with forward IndexByte jumps and
// counts the fields after it eight bytes at a time. Neither allocates.
package procfs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"strconv"

	"vfreq/internal/memfs"
	"vfreq/internal/sched"
)

// Mount is the conventional mount point.
const Mount = "/proc"

// Table exposes scheduler threads through /proc files.
type Table struct {
	fs    *memfs.FS
	mount string
}

// New mounts the table at mount inside fs.
func New(fs *memfs.FS, mount string) (*Table, error) {
	if err := fs.MkdirAll(mount); err != nil {
		return nil, err
	}
	return &Table{fs: fs, mount: mount}, nil
}

// Register exposes a thread as /proc/<tid>/stat. It must be called once
// per thread after creation.
func (t *Table) Register(th *sched.Thread, comm string) error {
	dir := fmt.Sprintf("%s/%d", t.mount, th.ID)
	if err := t.fs.MkdirAll(dir); err != nil {
		return err
	}
	return t.fs.AddDynamicAppend(dir+"/stat", func(buf []byte) []byte {
		return AppendStat(buf, th.ID, comm, th.UsageUs, th.LastCPU)
	}, nil)
}

// Unregister removes a thread's /proc entries.
func (t *Table) Unregister(tid int) error {
	return t.fs.RemoveAll(fmt.Sprintf("%s/%d", t.mount, tid))
}

// FormatStat renders a /proc/<tid>/stat line as a string.
func FormatStat(tid int, comm string, usageUs int64, lastCPU int) string {
	return string(AppendStat(nil, tid, comm, usageUs, lastCPU))
}

// statZeros is 24 zero fields, the longest run of them in a stat line;
// AppendStat slices its three runs from it.
const statZeros = " 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0"

// AppendStat appends a /proc/<tid>/stat line to buf and returns the
// extended slice, so the per-period placement read allocates nothing. Only
// the fields the controller consumes carry real values: pid (1), comm (2),
// state (3), utime (14, in clock ticks of 10 ms), and processor (39). The
// remaining fields are zero, as many are for kernel threads on a real
// system, and are appended as constant runs around the live ones.
func AppendStat(buf []byte, tid int, comm string, usageUs int64, lastCPU int) []byte {
	ticks := usageUs / 10_000 // USER_HZ = 100
	cpu := lastCPU
	if cpu < 0 {
		cpu = 0
	}
	buf = strconv.AppendInt(buf, int64(tid), 10)
	buf = append(buf, " ("...)
	buf = append(buf, comm...)
	buf = append(buf, ") R"...)
	buf = append(buf, statZeros[:2*10]...) // fields 4-13
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, ticks, 10) // 14: utime
	buf = append(buf, statZeros[:2*24]...)  // fields 15-38
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(cpu), 10) // 39: processor
	buf = append(buf, statZeros[:2*13]...)       // fields 40-52
	return append(buf, '\n')
}

// ParseStatLastCPUBytes extracts the processor field from a stat line,
// tolerating spaces and parentheses inside the comm field the way real
// parsers must: the comm ends at the line's last ')'. It walks the line
// in place, so the per-period placement read allocates nothing, and
// counts the fields after the comm eight bytes at a time (see
// separators), finishing a tail shorter than a word byte by byte. A
// field is a run of bytes other than ' ', '\t', '\n' and
// '\r'. A processor field that is not a decimal or does not fit an int is
// an error.
func ParseStatLastCPUBytes(line []byte) (int, error) {
	end := -1
	for i := 0; ; {
		j := bytes.IndexByte(line[i:], ')')
		if j < 0 {
			break
		}
		end = i + j
		i = end + 1
	}
	if end < 0 {
		return 0, fmt.Errorf("procfs: malformed stat line %q", line)
	}
	rest := line[end+1:]
	// The first field after the comm is field 3 (state); processor is
	// field 39, i.e. the 37th here.
	const want = 36
	// field counts the fields started before rest[i]; after is 0x80 when
	// rest[i-1] is a separator, as if one preceded rest[0], and 0 if not.
	field, i, after := 0, 0, uint64(0x80)
	for ; i+8 <= len(rest); i += 8 {
		sep := separators(binary.LittleEndian.Uint64(rest[i:]))
		starts := (sep<<8 | after) &^ sep // 0x80 where a field starts
		if n := bits.OnesCount64(starts); field+n <= want {
			field += n
			after = sep >> 56
			continue
		}
		for ; field < want; field++ {
			starts &= starts - 1
		}
		return parseCPU(rest[i+bits.TrailingZeros64(starts)/8:])
	}
	for sepBefore := after != 0; i < len(rest); i++ {
		if isSpace(rest[i]) {
			sepBefore = true
			continue
		}
		if !sepBefore {
			continue
		}
		if field == want {
			return parseCPU(rest[i:])
		}
		field++
		sepBefore = false
	}
	return 0, fmt.Errorf("procfs: stat line too short (%d fields after comm)", field)
}

// parseCPU parses the decimal field at the start of b, which runs to the
// first separator or the end of b.
func parseCPU(b []byte) (int, error) {
	n := 0
	for n < len(b) && !isSpace(b[n]) {
		n++
	}
	cpu := 0
	for _, c := range b[:n] {
		d := int(c - '0')
		if c < '0' || c > '9' || cpu > (math.MaxInt-d)/10 {
			return 0, fmt.Errorf("procfs: bad processor field %q", b[:n])
		}
		cpu = cpu*10 + d
	}
	return cpu, nil
}

const (
	lo7  = 0x7f7f7f7f7f7f7f7f
	ones = 0x0101010101010101
)

// separators returns a mask of the separator bytes of the eight bytes in
// w (little-endian): 0x80 in each byte of the mask whose byte in w is
// ' ', '\t', '\n' or '\r', and 0 elsewhere. Setting bit 2 maps '\t' onto
// '\r' and no other byte onto either, so three compares cover the four.
func separators(w uint64) uint64 {
	return ^(nonZero(w^' '*ones) & nonZero(w^'\n'*ones) & nonZero((w|4*ones)^'\r'*ones))
}

// nonZero returns 0xff in each byte of x that is not 0 and 0x7f in each
// that is. It is exact per byte: the sum cannot carry from one byte into
// the next, as each is at most 0x7f + 0x7f.
func nonZero(x uint64) uint64 {
	return (x&lo7 + lo7) | x | lo7
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}
