package cgroupfs

import "testing"

func BenchmarkParseCPUMax(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := ParseCPUMax("25000 100000", 100000); err != nil {
			b.Fatal(err)
		}
	}
}
