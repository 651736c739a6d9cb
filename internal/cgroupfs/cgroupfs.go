// Package cgroupfs parses the files of Linux cgroup v2 the controller
// consumes (cpu.max, cpu.stat, cgroup.threads).
//
// The virtual-frequency controller of the paper interacts with the kernel
// exclusively through these files: platform.Linux parses them with the
// functions here, and platform.Sim answers the same questions from the
// simulated scheduler's groups themselves.
package cgroupfs

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"

	"vfreq/internal/sched"
)

// DefaultMount is the conventional cgroup v2 mount point.
const DefaultMount = "/sys/fs/cgroup"

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
