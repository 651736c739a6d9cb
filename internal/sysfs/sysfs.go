// Package sysfs handles the cpufreq subset of /sys the controller reads:
// /sys/devices/system/cpu/cpu<N>/cpufreq/scaling_cur_freq (kHz), and the
// NUMA topology subset under /sys/devices/system/node (node<N>/cpulist)
// behind platform.Topology. platform.Linux reads these files with the
// parsers here.
package sysfs

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Mount is the conventional location of the cpu devices tree.
const Mount = "/sys/devices/system/cpu"

// CurFreqPath returns the scaling_cur_freq path of core c under mount, in
// one allocation while c < 100.
func CurFreqPath(mount string, c int) string {
	return mount + "/cpu" + strconv.Itoa(c) + "/cpufreq/scaling_cur_freq"
}

// ParseKHzBytes parses a cpufreq value file into kHz; it allocates
// nothing, for the per-period per-vCPU frequency read of the monitor
// stage. A value outside int64 is an error.
func ParseKHzBytes(content []byte) (int64, error) {
	b := content
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t' || b[0] == '\n' || b[0] == '\r') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t' || b[len(b)-1] == '\n' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	if len(b) == 0 {
		return 0, fmt.Errorf("sysfs: bad frequency %q", content)
	}
	var v int64
	for _, c := range b {
		d := int64(c - '0')
		if c < '0' || c > '9' || v > (math.MaxInt64-d)/10 {
			return 0, fmt.Errorf("sysfs: bad frequency %q", content)
		}
		v = v*10 + d
	}
	return v, nil
}

// NodeMount is the conventional location of the NUMA node tree.
const NodeMount = "/sys/devices/system/node"

// ParseCPUList parses a kernel cpulist file ("0-9,20-29" or "3") into
// the listed CPU indices, in file order.
func ParseCPUList(content string) ([]int, error) {
	s := strings.TrimSpace(content)
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		lo, hi := part, part
		if i := strings.IndexByte(part, '-'); i >= 0 {
			lo, hi = part[:i], part[i+1:]
		}
		a, err := strconv.Atoi(lo)
		if err != nil || a < 0 {
			return nil, fmt.Errorf("sysfs: bad cpulist %q", content)
		}
		b, err := strconv.Atoi(hi)
		if err != nil || b < a {
			return nil, fmt.Errorf("sysfs: bad cpulist %q", content)
		}
		for c := a; c <= b; c++ {
			out = append(out, c)
		}
	}
	return out, nil
}

// ParseOnline parses the cpu "online" cpulist ("0-63", or "0-3,8-11" with
// CPUs offlined) into a core count: the highest online index plus one.
func ParseOnline(content string) (int, error) {
	cpus, err := ParseCPUList(content)
	if err != nil {
		return 0, err
	}
	if len(cpus) == 0 {
		return 0, fmt.Errorf("sysfs: empty online file %q", content)
	}
	return slices.Max(cpus) + 1, nil
}
