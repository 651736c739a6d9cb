package platform

import (
	"strconv"
	"testing"

	"vfreq/internal/procfs"
)

// benchTree is a 40-core host over a tree of regular files carrying 40
// VMs of 2 vCPUs, whose threads last ran on cores spread over the node:
// the shape of the benchmark's node_linux_files workload.
func benchTree(b *testing.B) *cacheTree {
	tr := newTree(b)
	tr.l.Cores = 40
	for core := 0; core < tr.l.Cores; core++ {
		tr.write("sys/cpu/cpu"+strconv.Itoa(core)+"/cpufreq/scaling_cur_freq",
			strconv.Itoa(1_000_000+25_000*core)+"\n")
	}
	for i := 0; i < 40; i++ {
		vm := "v" + strconv.Itoa(i)
		tr.l.Freqs[vm] = 1200
		tr.addVM(vm, 2)
	}
	for tid := 100; tid < tr.nextTID; tid++ {
		tr.write("proc/"+strconv.Itoa(tid)+"/stat", procfs.FormatStat(tid, "CPU/KVM", 10, tid%tr.l.Cores))
	}
	return tr
}

// BenchmarkLinuxMonitorReads is one period of the monitor's reads on
// platform.Linux: ListVMs, then the four reads of each of 80 vCPUs (usage,
// thread, last core, that core's frequency), all on warm descriptors.
func BenchmarkLinuxMonitorReads(b *testing.B) {
	l := benchTree(b).l
	period := func() {
		vms, err := l.ListVMs()
		if err != nil {
			b.Fatal(err)
		}
		for _, vm := range vms {
			for j := 0; j < vm.VCPUs; j++ {
				if _, err := l.UsageUs(vm.Name, j); err != nil {
					b.Fatal(err)
				}
				tid, err := l.ThreadID(vm.Name, j)
				if err != nil {
					b.Fatal(err)
				}
				core, err := l.LastCPU(tid)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := l.CoreFreqMHz(core); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	period()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		period()
	}
}

// BenchmarkLinuxSetMax is one quota write on platform.Linux through a warm
// descriptor, alternating two quotas of one length as a converging
// controller does.
func BenchmarkLinuxSetMax(b *testing.B) {
	l := benchTree(b).l
	if err := l.SetMax("v0", 0, 45_000, 100_000); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.SetMax("v0", 0, 45_000+int64(i%2)*1_000, 100_000); err != nil {
			b.Fatal(err)
		}
	}
}
