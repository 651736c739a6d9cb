// Package procfs emulates the subset of /proc the virtual-frequency
// controller reads: /proc/<tid>/stat, whose 39th field (`task_cpu`) is the
// identifier of the core the thread last ran on. The controller combines
// it with the core's scaling_cur_freq to estimate a vCPU's virtual
// frequency.
package procfs

import (
	"fmt"
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

// AppendStat appends a /proc/<tid>/stat line to buf and returns the
// extended slice, so the per-period placement read allocates nothing. Only
// the fields the controller consumes carry real values: pid (1), comm (2),
// state (3), utime (14, in clock ticks of 10 ms), and processor (39). The
// remaining fields are zero, as many are for kernel threads on a real
// system.
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

// ParseStatLastCPUBytes extracts the processor field from a stat line,
// tolerating spaces inside the comm field the way real parsers must. It
// walks the fields in place instead of splitting, so the per-period
// placement read allocates nothing.
func ParseStatLastCPUBytes(line []byte) (int, error) {
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
	// The first field after the comm is field 3 (state); processor is
	// field 39, i.e. the 37th here.
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
				if c < '0' || c > '9' {
					return 0, fmt.Errorf("procfs: bad processor field %q", rest[start:i])
				}
				cpu = cpu*10 + int(c-'0')
			}
			return cpu, nil
		}
		field++
	}
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}
