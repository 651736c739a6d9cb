package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"vfreq/internal/cgroupfs"
	"vfreq/internal/core"
	"vfreq/internal/platform"
	"vfreq/internal/procfs"
)

const (
	filesCores   = 40
	filesMaxMHz  = 2400
	filesNUMA    = 2
	filesTIDBase = 4000
)

// fileVCPU is the benchmark's side of one vCPU cgroup of the file tree:
// it plays the kernel, reading the quota the controller wrote and
// advancing the usage counter the controller reads.
type fileVCPU struct {
	stat    *os.File // cpu.stat, rewritten every period
	max     *os.File // cpu.max, read back every period
	usageUs int64
	ranUs   int64 // CPU time granted in the current period
}

// fileTree is the tree of regular files in libvirt layout that stands in
// for /sys/fs/cgroup, /proc and /sys. It is created once per pass and
// reset for every further set-up: creating and deleting its 600 files
// each time made setup_s a measurement of the filesystem's journal.
type fileTree struct {
	dir   string
	vms   []vmDef
	vcpus [][]fileVCPU // per VM
	buf   []byte
}

const cpuMaxUnlimited = "max 100000\n"

// newFileTree writes the sysfs, procfs and cgroup files the Linux
// backend reads, and keeps descriptors on every cpu.stat and cpu.max.
func newFileTree(root string, vms []vmDef) (*fileTree, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "linux-files-")
	if err != nil {
		return nil, err
	}
	t := &fileTree{dir: dir, vms: vms}
	if err := t.populate(); err != nil {
		t.remove()
		return nil, err
	}
	return t, nil
}

func (t *fileTree) populate() error {
	write := func(rel, content string) error {
		full := filepath.Join(t.dir, rel)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			return err
		}
		return os.WriteFile(full, []byte(content), 0o644)
	}
	if err := write("sys/cpu/online", fmt.Sprintf("0-%d\n", filesCores-1)); err != nil {
		return err
	}
	for c := 0; c < filesCores; c++ {
		if err := write(fmt.Sprintf("sys/cpu/cpu%d/cpufreq/scaling_cur_freq", c), fmt.Sprintf("%d\n", filesMaxMHz*1000)); err != nil {
			return err
		}
	}
	per := filesCores / filesNUMA
	for n := 0; n < filesNUMA; n++ {
		if err := write(fmt.Sprintf("sys/node/node%d/cpulist", n), fmt.Sprintf("%d-%d\n", n*per, (n+1)*per-1)); err != nil {
			return err
		}
	}
	tid := filesTIDBase
	for _, d := range t.vms {
		scope := "cgroup/machine-qemu-" + d.name + ".scope"
		if err := write(scope+"/emulator/cpu.stat", "usage_usec 0\n"); err != nil {
			return err
		}
		vcpus := make([]fileVCPU, d.tpl.VCPUs)
		for j := range vcpus {
			base := fmt.Sprintf("%s/vcpu%d/", scope, j)
			for name, content := range map[string]string{
				"cpu.stat":       string(appendCPUStat(nil, 0)),
				"cpu.max":        cpuMaxUnlimited,
				"cpu.max.burst":  "0\n",
				"cgroup.threads": fmt.Sprintf("%d\n", tid),
			} {
				if err := write(base+name, content); err != nil {
					return err
				}
			}
			if err := write(fmt.Sprintf("proc/%d/stat", tid),
				procfs.FormatStat(tid, fmt.Sprintf("CPU %d/KVM", j), 0, tid%filesCores)); err != nil {
				return err
			}
			var err error
			if vcpus[j].stat, err = os.OpenFile(filepath.Join(t.dir, base+"cpu.stat"), os.O_WRONLY, 0); err != nil {
				return err
			}
			if vcpus[j].max, err = os.OpenFile(filepath.Join(t.dir, base+"cpu.max"), os.O_RDWR, 0); err != nil {
				return err
			}
			tid++
		}
		t.vcpus = append(t.vcpus, vcpus)
	}
	return nil
}

// reset returns the tree to its initial state: no usage, no quota.
func (t *fileTree) reset() error {
	rewrite := func(f *os.File, content []byte) error {
		if _, err := f.WriteAt(content, 0); err != nil {
			return err
		}
		return f.Truncate(int64(len(content)))
	}
	for _, vcpus := range t.vcpus {
		for j := range vcpus {
			v := &vcpus[j]
			v.usageUs, v.ranUs = 0, 0
			t.buf = appendCPUStat(t.buf[:0], 0)
			if err := rewrite(v.stat, t.buf); err != nil {
				return err
			}
			if err := rewrite(v.max, []byte(cpuMaxUnlimited)); err != nil {
				return err
			}
		}
	}
	return nil
}

func (t *fileTree) remove() {
	for _, vcpus := range t.vcpus {
		for j := range vcpus {
			vcpus[j].stat.Close()
			vcpus[j].max.Close()
		}
	}
	os.RemoveAll(t.dir)
}

// nodeFiles runs one controller over platform.Linux pointed at the file
// tree: node_linux_files. There is no simulator; between steps the
// benchmark itself grants each vCPU min(demand, quota) of CPU time —
// scaled down when the node is oversubscribed — and rewrites cpu.stat,
// so the loop is closed through the real files in both directions.
type nodeFiles struct {
	p      *pass
	tree   *fileTree
	levels [][]float64
	linux  *platform.Linux
	ctrl   *core.Controller
	cfg    core.Config

	demanding []int
}

func buildNodeFiles(p *pass) (runner, error) {
	vms := tableII()
	var err error
	if p.tree == nil {
		if p.tree, err = newFileTree(p.opt.tmpRoot, vms); err != nil {
			return nil, err
		}
	} else if err = p.tree.reset(); err != nil {
		return nil, err
	}
	dir := p.tree.dir
	r := &nodeFiles{p: p, tree: p.tree, levels: p.in.levels, demanding: make([]int, len(vms))}
	freqs := make(map[string]int64, len(vms))
	for _, d := range vms {
		freqs[d.name] = d.tpl.FreqMHz
	}
	r.linux = &platform.Linux{
		NodeName:    "linux-files",
		CgroupRoot:  filepath.Join(dir, "cgroup"),
		ProcRoot:    filepath.Join(dir, "proc"),
		SysCPURoot:  filepath.Join(dir, "sys/cpu"),
		SysNUMARoot: filepath.Join(dir, "sys/node"),
		MaxFreqMHz:  filesMaxMHz,
		Cores:       filesCores,
		Freqs:       freqs,
	}
	// The robustness layer armed as a real host would run it; no fault
	// is injected, so what it costs here is its idle cost.
	r.cfg = core.DefaultConfig()
	r.cfg.CallBudgetUs = 250_000
	r.cfg.RetryBackoffUs = 200
	r.cfg.BreakerThreshold = 3
	var h platform.Host = r.linux
	if p.tr != nil {
		r.cfg.MonitorWorkers = 1
		p.th = &tracedHost{inner: r.linux, tr: p.tr}
		h = p.th
	}
	if r.ctrl, err = core.New(h, r.cfg); err != nil {
		return nil, err
	}
	return r, nil
}

// appendCPUStat renders a cgroup v2 cpu.stat. The counters only grow, so
// rewriting the file in place at offset zero never leaves stale bytes.
func appendCPUStat(b []byte, usageUs int64) []byte {
	b = append(b, "usage_usec "...)
	b = strconv.AppendInt(b, usageUs, 10)
	b = append(b, "\nuser_usec "...)
	b = strconv.AppendInt(b, usageUs, 10)
	return append(b, "\nsystem_usec 0\nnr_periods 0\nnr_throttled 0\nthrottled_usec 0\n"...)
}

// readQuotaShare returns the share of one core the vCPU's cpu.max allows.
func readQuotaShare(f *os.File) (float64, error) {
	var raw [64]byte
	n, err := f.ReadAt(raw[:], 0)
	if n == 0 && err != nil {
		return 0, err
	}
	quota, period, err := cgroupfs.ParseCPUMax(string(raw[:n]), 100_000)
	if err != nil {
		return 0, err
	}
	if quota < 0 || quota > period { // "max", or more than one core's worth
		return 1, nil
	}
	return float64(quota) / float64(period), nil
}

// advance plays one period of the kernel: grant CPU time, rewrite cpu.stat.
func (r *nodeFiles) advance(k int) error {
	var granted int64
	for i, vcpus := range r.tree.vcpus {
		for j := range vcpus {
			v := &vcpus[j]
			share, err := readQuotaShare(v.max)
			if err != nil {
				return fmt.Errorf("reading cpu.max of %s/vcpu%d: %w", r.tree.vms[i].name, j, err)
			}
			if d := r.levels[i][k]; d < share {
				share = d
			}
			v.ranUs = int64(share * float64(r.cfg.PeriodUs))
			granted += v.ranUs
		}
	}
	capacity := int64(filesCores) * r.cfg.PeriodUs
	for i, vcpus := range r.tree.vcpus {
		for j := range vcpus {
			v := &vcpus[j]
			if granted > capacity {
				v.ranUs = v.ranUs * capacity / granted
			}
			v.usageUs += v.ranUs
			r.tree.buf = appendCPUStat(r.tree.buf[:0], v.usageUs)
			if _, err := v.stat.WriteAt(r.tree.buf, 0); err != nil {
				return fmt.Errorf("writing cpu.stat of %s/vcpu%d: %w", r.tree.vms[i].name, j, err)
			}
		}
	}
	return nil
}

func (r *nodeFiles) period(k int) {
	p := r.p
	if err := r.advance(k); err != nil {
		p.fail("period %d: %v", k, err)
		return
	}
	root := p.beginPeriod()
	var err error
	stepNs := p.span(spStep, func() { err = r.ctrl.Step() })
	p.endPeriod(root)

	for i, d := range r.tree.vms {
		vcpus := r.tree.vcpus[i]
		demanding := r.levels[i][k] >= slaDemand*float64(d.tpl.FreqMHz)/filesMaxMHz
		if p.slaDue(&r.demanding[i], demanding) {
			var ran int64
			for j := range vcpus {
				ran += vcpus[j].ranUs
			}
			p.slaCount(float64(ran)/float64(len(vcpus))/float64(r.cfg.PeriodUs)*filesMaxMHz, d.tpl.FreqMHz)
		}
	}
	p.recordNodeStep(r.ctrl, 0, stepNs, err)
}

func (r *nodeFiles) finish() {
	checkController(r.p, r.ctrl, "node")
	checkQuotas(r.p, r.ctrl, r.linux, "node")
	d := newDigest()
	digestController(d, r.ctrl)
	for _, vcpus := range r.tree.vcpus {
		for j := range vcpus {
			d.int(vcpus[j].usageUs)
		}
	}
	r.p.stateDigest = d.sum()
}

// close drops the backend's kept-open descriptors: with no template
// registered, ListVMs prunes every cached vCPU. The tree stays for the
// next set-up; the pass removes it.
func (r *nodeFiles) close() {
	r.linux.Freqs = nil
	_, _ = r.linux.ListVMs()
}
