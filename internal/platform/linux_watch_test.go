package platform

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"testing"
	"time"
)

// TestLinuxReadIsOnePread: a handle read is one read syscall, however
// short the file. (*os.File).ReadAt, which read used to call, reads again
// until the buffer is full or EOF, so every pseudo-file shorter than the
// scratch cost two. The count is the process's syscr from /proc/self/io,
// itself read through a handle; the least of five tries is taken, as
// anything else the runtime reads only adds.
func TestLinuxReadIsOnePread(t *testing.T) {
	l := fixtureHost(t)
	io := &handle{path: "/proc/self/io", host: l}
	defer io.close()
	syscr := func() int64 {
		t.Helper()
		b, err := io.read()
		if err != nil {
			t.Skipf("no read syscall count here: %v", err)
		}
		_, after, ok := bytes.Cut(b, []byte("syscr: "))
		if !ok {
			t.Skipf("no syscr in /proc/self/io: %q", b)
		}
		n, err := strconv.ParseInt(string(bytes.Fields(after)[0]), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if _, err := l.UsageUs("guest1", 0); err != nil { // open the descriptor
		t.Fatal(err)
	}
	const reads = 100
	least := int64(-1)
	for try := 0; try < 5; try++ {
		a := syscr()
		b := syscr()
		for i := 0; i < reads; i++ {
			if _, err := l.UsageUs("guest1", 0); err != nil {
				t.Fatal(err)
			}
		}
		c := syscr()
		// c-b counts the reads and one measuring read; b-a, that read.
		if d := (c - b) - (b - a); least < 0 || d < least {
			least = d
		}
	}
	if least != reads {
		t.Fatalf("%d handle reads made %d read syscalls, want %d", reads, least, reads)
	}
}

// TestLinuxBrokenWatchRescans: a watch whose descriptor fails its read
// vouches for nothing. The test drains the events of an arrival, so only a
// scan can see it, and closes the descriptor: the next ListVMs scans,
// answers what is there, and arms a fresh watch that reports the next
// change.
func TestLinuxBrokenWatchRescans(t *testing.T) {
	tr := newCacheTree(t)
	a2, b1, c1 := VMInfo{"a", 2, 1800}, VMInfo{"b", 1, 1200}, VMInfo{"c", 1, 600}
	tr.list("first call", []VMInfo{a2, b1}, 0)
	w := armedWatch(t, tr.l)
	tr.addVM("c", 1)
	drain(t, tr.l)
	if err := syscall.Close(w.fd); err != nil {
		t.Fatal(err)
	}
	tr.list("after the watch broke", []VMInfo{a2, b1, c1}, 0)
	if w.fd < 0 {
		t.Fatal("the scan armed no fresh watch")
	}
	tr.remove(scopeOf("c"))
	tr.list("after c left, under the fresh watch", []VMInfo{a2, b1}, 0)
}

// inotifyFDs counts this process's open inotify descriptors.
func inotifyFDs(t *testing.T) int {
	t.Helper()
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no descriptor table to count: %v", err)
	}
	n := 0
	for _, e := range entries {
		if target, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil && target == "anon_inode:inotify" {
			n++
		}
	}
	return n
}

// TestLinuxWatchReleased: a backend dropped without a last call releases
// its inotify descriptor once it is collected, as the benchmark drops
// every backend it builds. Kill list, each verified red: no finalizer on
// the watch; rescan keeps the old descriptor open when it arms a new one.
func TestLinuxWatchReleased(t *testing.T) {
	tr := newCacheTree(t)
	// settle collects until at most want inotify descriptors are open, or
	// a second has passed; finalizers run after the collection that finds
	// their object unreachable.
	settle := func(want int) int {
		t.Helper()
		for i := 0; i < 100; i++ {
			runtime.GC()
			if n := inotifyFDs(t); n <= want {
				return n
			}
			time.Sleep(10 * time.Millisecond)
		}
		return inotifyFDs(t)
	}
	base := settle(0)
	const backends, calls = 8, 3
	func() {
		built := make([]*Linux, backends)
		for i := range built {
			l := &Linux{
				NodeName:   tr.l.NodeName,
				CgroupRoot: tr.l.CgroupRoot,
				ProcRoot:   tr.l.ProcRoot,
				SysCPURoot: tr.l.SysCPURoot,
				Cores:      tr.l.Cores,
				MaxFreqMHz: tr.l.MaxFreqMHz,
				Freqs:      tr.l.Freqs,
			}
			for c := 0; c < calls; c++ {
				l.scanOK = false // a scan on every call, each arming a watch
				if _, err := l.ListVMs(); err != nil {
					t.Fatal(err)
				}
			}
			built[i] = l
		}
		armedWatch(t, built[0])
		if open := inotifyFDs(t) - base; open != backends {
			t.Fatalf("%d backends listed %d times each hold %d inotify descriptors, want one each", backends, calls, open)
		}
	}()
	if left := settle(base) - base; left > 0 {
		t.Fatalf("%d inotify descriptors open after %d backends were dropped and collected, want 0", left, backends)
	}
}
