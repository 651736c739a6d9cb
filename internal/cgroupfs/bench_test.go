package cgroupfs

import (
	"testing"

	"vfreq/internal/sched"
)

func BenchmarkCreateDestroyGroup(b *testing.B) {
	tree := New(sched.New(64))
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
