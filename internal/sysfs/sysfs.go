// Package sysfs emulates the cpufreq subset of /sys the controller reads:
// /sys/devices/system/cpu/cpu<N>/cpufreq/scaling_cur_freq (kHz), and the
// NUMA topology subset under /sys/devices/system/node (node<N>/cpulist)
// behind platform.Topology.
package sysfs

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"vfreq/internal/dvfs"
	"vfreq/internal/memfs"
)

// Mount is the conventional location of the cpu devices tree.
const Mount = "/sys/devices/system/cpu"

// Mount exposes a dvfs.Model's per-core frequencies under mount inside fs.
func MountModel(fs *memfs.FS, m *dvfs.Model, mount string) error {
	if err := fs.MkdirAll(mount); err != nil {
		return err
	}
	for c := 0; c < m.Cores(); c++ {
		c := c
		dir := fmt.Sprintf("%s/cpu%d/cpufreq", mount, c)
		if err := fs.MkdirAll(dir); err != nil {
			return err
		}
		// scaling_cur_freq is read once per vCPU per period by the
		// monitor stage, so it renders append-style to the caller's
		// buffer.
		if err := fs.AddDynamicAppend(dir+"/scaling_cur_freq", func(buf []byte) []byte {
			buf = strconv.AppendInt(buf, m.FreqKHz(c), 10)
			return append(buf, '\n')
		}, nil); err != nil {
			return err
		}
	}
	return nil
}

// CurFreqPath returns the scaling_cur_freq path of core c under mount.
func CurFreqPath(mount string, c int) string {
	return fmt.Sprintf("%s/cpu%d/cpufreq/scaling_cur_freq", mount, c)
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

// NodeCPUListPath returns the cpulist path of NUMA node n under mount.
func NodeCPUListPath(mount string, n int) string {
	return fmt.Sprintf("%s/node%d/cpulist", mount, n)
}

// MountNodes exposes a NUMA topology of nodes equal-sized contiguous
// blocks of cores under mount inside fs, the way the kernel lays out
// /sys/devices/system/node: node<N>/cpulist plus an "online" range file.
// A remainder of cores not divisible by nodes lands on the last node.
func MountNodes(fs *memfs.FS, mount string, cores, nodes int) error {
	if nodes <= 0 || cores <= 0 {
		return fmt.Errorf("sysfs: invalid NUMA layout %d cores / %d nodes", cores, nodes)
	}
	if nodes > cores {
		nodes = cores
	}
	if err := fs.MkdirAll(mount); err != nil {
		return err
	}
	online := "0\n"
	if nodes > 1 {
		online = fmt.Sprintf("0-%d\n", nodes-1)
	}
	if err := fs.AddFile(mount+"/online", online); err != nil {
		return err
	}
	per := cores / nodes
	for n := 0; n < nodes; n++ {
		dir := fmt.Sprintf("%s/node%d", mount, n)
		if err := fs.MkdirAll(dir); err != nil {
			return err
		}
		lo := n * per
		hi := lo + per - 1
		if n == nodes-1 {
			hi = cores - 1
		}
		list := fmt.Sprintf("%d\n", lo)
		if hi > lo {
			list = fmt.Sprintf("%d-%d\n", lo, hi)
		}
		if err := fs.AddFile(dir+"/cpulist", list); err != nil {
			return err
		}
	}
	return nil
}

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
