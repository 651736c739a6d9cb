// Package cgroupfs exposes a sched.Scheduler cgroup hierarchy through the
// files of Linux cgroup v2 the controller reads and writes (cpu.max,
// cpu.stat, cgroup.threads). Like a kernel before 5.14, it has no
// cpu.max.burst; cpu.stat holds only the usage counters.
//
// The virtual-frequency controller of the paper interacts with the kernel
// exclusively through these files; emulating them byte-for-byte means the
// controller code exercised in simulation is the same code that would run
// against /sys/fs/cgroup on a real host.
package cgroupfs

import (
	"fmt"
	"math"
	"path"
	"strconv"
	"strings"
	"unicode"

	"vfreq/internal/memfs"
	"vfreq/internal/sched"
)

// DefaultMount is the conventional cgroup v2 mount point.
const DefaultMount = "/sys/fs/cgroup"

// Tree binds a scheduler's cgroup hierarchy to a memfs mount.
type Tree struct {
	fs     *memfs.FS
	sched  *sched.Scheduler
	mount  string
	groups map[string]*sched.Group // by path relative to mount, "" = root
}

// New mounts the scheduler's root cgroup at mount inside fs.
func New(fs *memfs.FS, s *sched.Scheduler, mount string) (*Tree, error) {
	t := &Tree{fs: fs, sched: s, mount: mount, groups: map[string]*sched.Group{}}
	if err := fs.MkdirAll(mount); err != nil {
		return nil, err
	}
	t.groups[""] = s.Root()
	if err := t.addControlFiles("", s.Root()); err != nil {
		return nil, err
	}
	return t, nil
}

// normalize cleans a group path relative to the mount ("" is the root).
func normalize(rel string) string {
	rel = strings.Trim(path.Clean("/"+rel), "/")
	if rel == "." {
		return ""
	}
	return rel
}

// Group returns the scheduler group behind the given relative path.
func (t *Tree) Group(rel string) (*sched.Group, error) {
	g, ok := t.groups[normalize(rel)]
	if !ok {
		return nil, fmt.Errorf("cgroupfs: no cgroup %q", rel)
	}
	return g, nil
}

// CreateGroup creates a cgroup at the given path relative to the mount.
// Parents must exist (as on a real cgroupfs, mkdir is not recursive).
func (t *Tree) CreateGroup(rel string) (*sched.Group, error) {
	rel = normalize(rel)
	if rel == "" {
		return nil, fmt.Errorf("cgroupfs: root already exists")
	}
	if _, ok := t.groups[rel]; ok {
		return nil, fmt.Errorf("cgroupfs: cgroup %q already exists", rel)
	}
	parentRel := normalize(path.Dir(rel))
	parent, ok := t.groups[parentRel]
	if !ok {
		return nil, fmt.Errorf("cgroupfs: parent of %q does not exist", rel)
	}
	g := t.sched.NewGroup(parent, path.Base(rel))
	dir := path.Join(t.mount, rel)
	if err := t.fs.Mkdir(dir); err != nil {
		return nil, err
	}
	t.groups[rel] = g
	if err := t.addControlFiles(rel, g); err != nil {
		return nil, err
	}
	return g, nil
}

// CreateGroupAll creates a cgroup and any missing ancestors.
func (t *Tree) CreateGroupAll(rel string) (*sched.Group, error) {
	rel = normalize(rel)
	if rel == "" {
		return t.sched.Root(), nil
	}
	parts := strings.Split(rel, "/")
	cur := ""
	for _, p := range parts {
		cur = normalize(path.Join(cur, p))
		if _, ok := t.groups[cur]; ok {
			continue
		}
		if _, err := t.CreateGroup(cur); err != nil {
			return nil, err
		}
	}
	return t.groups[rel], nil
}

// RemoveGroup removes a cgroup subtree.
func (t *Tree) RemoveGroup(rel string) error {
	rel = normalize(rel)
	if rel == "" {
		return fmt.Errorf("cgroupfs: cannot remove root")
	}
	g, ok := t.groups[rel]
	if !ok {
		return fmt.Errorf("cgroupfs: no cgroup %q", rel)
	}
	if err := t.sched.RemoveGroup(g); err != nil {
		return err
	}
	prefix := rel + "/"
	for k := range t.groups {
		if k == rel || strings.HasPrefix(k, prefix) {
			delete(t.groups, k)
		}
	}
	return t.fs.RemoveAll(path.Join(t.mount, rel))
}

func (t *Tree) addControlFiles(rel string, g *sched.Group) error {
	dir := path.Join(t.mount, rel)
	// Every file renders through an append-style callback, so a
	// ReadFileAppend into a reused buffer allocates nothing.
	files := map[string]struct {
		read  memfs.ReadAppendFunc
		write memfs.WriteFunc
	}{
		"cpu.max": {
			read: func(buf []byte) []byte { return appendCPUMax(buf, g.QuotaUs, g.PeriodUs) },
			write: func(s string) error {
				q, p, err := ParseCPUMax(s, g.PeriodUs)
				if err != nil {
					return err
				}
				return g.SetQuota(q, p)
			},
		},
		"cpu.stat":       {read: func(buf []byte) []byte { return appendCPUStat(buf, g) }},
		"cgroup.threads": {read: func(buf []byte) []byte { return appendTIDs(buf, g) }},
	}
	for name, f := range files {
		if err := t.fs.AddDynamicAppend(path.Join(dir, name), f.read, f.write); err != nil {
			return err
		}
	}
	return nil
}

// appendCPUMax renders cpu.max the way cgroup v2 does: "max PERIOD" for
// an unlimited group, "QUOTA PERIOD" otherwise.
func appendCPUMax(buf []byte, quotaUs, periodUs int64) []byte {
	if quotaUs == sched.NoQuota {
		buf = append(buf, "max"...)
	} else {
		buf = strconv.AppendInt(buf, quotaUs, 10)
	}
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, periodUs, 10)
	return append(buf, '\n')
}

// appendCPUStat renders cpu.stat into buf: the three usage counters, all
// of the simulated time user time. The controller reads usage_usec; the
// bandwidth and burst counters of a real cpu.stat have no reader here.
func appendCPUStat(buf []byte, g *sched.Group) []byte {
	buf = append(buf, "usage_usec "...)
	buf = strconv.AppendInt(buf, g.UsageUs, 10)
	buf = append(buf, "\nuser_usec "...)
	buf = strconv.AppendInt(buf, g.UsageUs, 10)
	return append(buf, "\nsystem_usec 0\n"...)
}

// appendTIDs renders the group's thread IDs ascending, one per line,
// without building a sorted slice: thread IDs are unique, so emitting the
// successor of the last emitted ID per round is a selection sort over the
// (typically single-digit) member list.
func appendTIDs(buf []byte, g *sched.Group) []byte {
	prev := -1
	for range g.Threads {
		best := -1
		for _, th := range g.Threads {
			if th.ID > prev && (best == -1 || th.ID < best) {
				best = th.ID
			}
		}
		if best == -1 {
			break
		}
		buf = strconv.AppendInt(buf, int64(best), 10)
		buf = append(buf, '\n')
		prev = best
	}
	return buf
}

// ParseCPUMax parses a cpu.max write: "max", "QUOTA" or "QUOTA PERIOD".
// A missing period keeps the current one (the kernel behaviour). It splits
// the fields as strings.Fields does, in place: a valid write allocates
// nothing.
func ParseCPUMax(s string, currentPeriod int64) (quotaUs, periodUs int64, err error) {
	quota, rest := nextField(s)
	period, rest := nextField(rest)
	if extra, _ := nextField(rest); quota == "" || extra != "" {
		return 0, 0, fmt.Errorf("cgroupfs: malformed cpu.max write %q", s)
	}
	periodUs = currentPeriod
	if period != "" {
		periodUs, err = strconv.ParseInt(period, 10, 64)
		if err != nil || periodUs <= 0 {
			return 0, 0, fmt.Errorf("cgroupfs: bad period in %q", s)
		}
	}
	if quota == "max" {
		return sched.NoQuota, periodUs, nil
	}
	quotaUs, err = strconv.ParseInt(quota, 10, 64)
	if err != nil || quotaUs <= 0 {
		return 0, 0, fmt.Errorf("cgroupfs: bad quota in %q", s)
	}
	return quotaUs, periodUs, nil
}

// nextField returns the first of s's space-separated fields, with the
// spaces strings.Fields splits at, and what follows it; "" when there is
// none.
func nextField(s string) (field, rest string) {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	if end := strings.IndexFunc(s, unicode.IsSpace); end >= 0 {
		return s[:end], s[end:]
	}
	return s, ""
}

// ParseCPUStatBytes extracts the named counter from a cpu.stat read. It
// performs no allocation, so the controller's monitor stage can call it
// every period for every vCPU without generating garbage.
func ParseCPUStatBytes(content []byte, key string) (int64, error) {
	for len(content) > 0 {
		line := content
		if i := indexByte(content, '\n'); i >= 0 {
			line, content = content[:i], content[i+1:]
		} else {
			content = nil
		}
		sp := indexByte(line, ' ')
		if sp < 0 || string(line[:sp]) != key { // compare, no conversion alloc
			continue
		}
		v, ok := parseInt64Bytes(line[sp+1:])
		if !ok {
			return 0, fmt.Errorf("cgroupfs: bad %s value %q", key, line)
		}
		return v, nil
	}
	return 0, fmt.Errorf("cgroupfs: key %q not in cpu.stat", key)
}

// ParseSingleTID parses a cgroup.threads read without allocating,
// returning the first thread id and the total number of ids present.
// Malformed lines yield an error; cardinality is the caller's call.
func ParseSingleTID(content []byte) (tid, n int, err error) {
	for len(content) > 0 {
		line := content
		if i := indexByte(content, '\n'); i >= 0 {
			line, content = content[:i], content[i+1:]
		} else {
			content = nil
		}
		v, ok := parseInt64Bytes(line)
		if !ok {
			if isBlank(line) {
				continue
			}
			return 0, 0, fmt.Errorf("cgroupfs: bad tid %q", line)
		}
		if n == 0 {
			tid = int(v)
		}
		n++
	}
	return tid, n, nil
}

func indexByte(b []byte, c byte) int {
	for i := range b {
		if b[i] == c {
			return i
		}
	}
	return -1
}

func isBlank(b []byte) bool {
	for _, c := range b {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return false
		}
	}
	return true
}

// parseInt64Bytes parses a possibly whitespace-padded decimal without
// going through a string. A value outside int64 is not a decimal.
func parseInt64Bytes(b []byte) (int64, bool) {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t' || b[0] == '\n' || b[0] == '\r') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t' || b[len(b)-1] == '\n' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	if b[0] == '-' {
		neg = true
		b = b[1:]
		if len(b) == 0 {
			return 0, false
		}
	}
	var v int64
	for _, c := range b {
		d := int64(c - '0')
		if c < '0' || c > '9' || v > (math.MaxInt64-d)/10 {
			return 0, false // not a digit, or v*10+d overflows
		}
		v = v*10 + d
	}
	if neg {
		v = -v
	}
	return v, true
}
