// Package procfs emulates the subset of /proc the virtual-frequency
// controller reads: /proc/<tid>/stat, whose 39th field (`task_cpu`) is the
// identifier of the core the thread last ran on. The controller combines
// it with the core's scaling_cur_freq to estimate a vCPU's virtual
// frequency.
package procfs

import (
	"fmt"
	"strconv"
	"strings"

	"vfreq/internal/memfs"
	"vfreq/internal/sched"
)

// Mount is the conventional mount point.
const Mount = "/proc"

// Table exposes scheduler threads through /proc files.
type Table struct {
	fs    *memfs.FS
	sched *sched.Scheduler
	mount string
}

// New mounts the table at mount inside fs, including the system-wide
// files /proc/stat, /proc/loadavg and /proc/uptime.
func New(fs *memfs.FS, s *sched.Scheduler, mount string) (*Table, error) {
	if err := fs.MkdirAll(mount); err != nil {
		return nil, err
	}
	t := &Table{fs: fs, sched: s, mount: mount}
	system := map[string]memfs.ReadFunc{
		"stat":    t.readStat,
		"loadavg": t.readLoadAvg,
		"uptime":  t.readUptime,
	}
	for name, read := range system {
		if err := fs.AddDynamic(mount+"/"+name, read, nil); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// readStat renders /proc/stat: aggregate and per-cpu jiffy counters
// (USER_HZ = 100). Only the user and idle columns carry real values.
func (t *Table) readStat() string {
	var b strings.Builder
	var busyTotal, idleTotal int64
	now := t.sched.NowUs()
	for c := 0; c < t.sched.Cores; c++ {
		busyTotal += t.sched.CoreBusyTotalUs(c)
		idleTotal += now - t.sched.CoreBusyTotalUs(c)
	}
	fmt.Fprintf(&b, "cpu  %d 0 0 %d 0 0 0 0 0 0\n", busyTotal/10_000, idleTotal/10_000)
	for c := 0; c < t.sched.Cores; c++ {
		busy := t.sched.CoreBusyTotalUs(c)
		fmt.Fprintf(&b, "cpu%d %d 0 0 %d 0 0 0 0 0 0\n",
			c, busy/10_000, (now-busy)/10_000)
	}
	fmt.Fprintf(&b, "ctxt 0\nbtime 0\nprocesses %d\n", t.sched.RunnableCount())
	return b.String()
}

// readLoadAvg renders /proc/loadavg from the scheduler's exponential
// runnable-thread averages.
func (t *Table) readLoadAvg() string {
	l1, l5, l15 := t.sched.LoadAvg()
	n := t.sched.RunnableCount()
	return fmt.Sprintf("%.2f %.2f %.2f %d/%d %d\n", l1, l5, l15, n, n, n+1)
}

// readUptime renders /proc/uptime: uptime and aggregate idle seconds.
func (t *Table) readUptime() string {
	now := float64(t.sched.NowUs()) / 1e6
	var busy int64
	for c := 0; c < t.sched.Cores; c++ {
		busy += t.sched.CoreBusyTotalUs(c)
	}
	idle := (float64(t.sched.NowUs())*float64(t.sched.Cores) - float64(busy)) / 1e6
	return fmt.Sprintf("%.2f %.2f\n", now, idle)
}

// Register exposes a thread as /proc/<tid>/stat (and a comm file). It must
// be called once per thread after creation.
func (t *Table) Register(th *sched.Thread, comm string) error {
	dir := fmt.Sprintf("%s/%d", t.mount, th.ID)
	if err := t.fs.MkdirAll(dir); err != nil {
		return err
	}
	if err := t.fs.AddDynamicAppend(dir+"/stat", func(buf []byte) []byte {
		return AppendStat(buf, th.ID, comm, th.UsageUs, th.LastCPU)
	}, nil); err != nil {
		return err
	}
	return t.fs.AddDynamic(dir+"/comm", func() string { return comm + "\n" }, nil)
}

// Unregister removes a thread's /proc entries.
func (t *Table) Unregister(tid int) error {
	return t.fs.RemoveAll(fmt.Sprintf("%s/%d", t.mount, tid))
}

// FormatStat renders a /proc/<tid>/stat line. Only the fields the
// controller consumes carry real values: pid (1), comm (2), state (3),
// utime (14, in clock ticks of 10 ms), and processor (39). The remaining
// fields are zero, as many are for kernel threads on a real system.
func FormatStat(tid int, comm string, usageUs int64, lastCPU int) string {
	ticks := usageUs / 10_000 // USER_HZ = 100
	fields := make([]string, 52)
	for i := range fields {
		fields[i] = "0"
	}
	fields[0] = strconv.Itoa(tid)
	fields[1] = "(" + comm + ")"
	fields[2] = "R"
	fields[13] = strconv.FormatInt(ticks, 10) // utime
	cpu := lastCPU
	if cpu < 0 {
		cpu = 0
	}
	fields[38] = strconv.Itoa(cpu) // processor
	return strings.Join(fields, " ") + "\n"
}

// AppendStat appends the same line FormatStat renders to buf and returns
// the extended slice, so the per-period placement read allocates nothing.
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
