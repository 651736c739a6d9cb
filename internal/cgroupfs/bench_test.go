package cgroupfs

import (
	"fmt"
	"testing"

	"vfreq/internal/memfs"
	"vfreq/internal/sched"
)

func benchTree(b *testing.B, groups int) (*Tree, *memfs.FS) {
	b.Helper()
	fs := memfs.New()
	s := sched.New(64)
	tree, err := New(fs, s, DefaultMount)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < groups; i++ {
		g, err := tree.CreateGroup(fmt.Sprintf("vm%d", i))
		if err != nil {
			b.Fatal(err)
		}
		s.NewThread(g, nil)
	}
	return tree, fs
}

// The controller's hot path: reading cpu.stat for every vCPU each period.
func BenchmarkReadCPUStat(b *testing.B) {
	_, fs := benchTree(b, 80)
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		content, err := fs.ReadFileAppend(DefaultMount+"/vm42/cpu.stat", buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		buf = content
		if _, err := ParseCPUStatBytes(content, "usage_usec"); err != nil {
			b.Fatal(err)
		}
	}
}

// The controller's write path: setting cpu.max for every vCPU each period.
func BenchmarkWriteCPUMax(b *testing.B) {
	_, fs := benchTree(b, 80)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fs.WriteFile(DefaultMount+"/vm42/cpu.max", "25000 100000"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCreateDestroyGroup(b *testing.B) {
	tree, _ := benchTree(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.CreateGroup("tmp"); err != nil {
			b.Fatal(err)
		}
		if err := tree.RemoveGroup("tmp"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseCPUMax(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := ParseCPUMax("25000 100000", 100000); err != nil {
			b.Fatal(err)
		}
	}
}
