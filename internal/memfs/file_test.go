package memfs

import (
	"errors"
	"testing"

	"vfreq/internal/raceflag"
)

// Kill list — each mutation of memfs.go, made in a copy, turns the named
// test (row) red:
//
//	mutation                                   red
//	drop the gen bump in mkdirLocked           TestFileMatchesPathAccess/directory_created_after_open
//	drop the gen bump in addNode               TestFileMatchesPathAccess/opened_before_the_file_exists
//	drop the gen bump in RemoveAll             TestFileMatchesPathAccess/removed_file, removed_ancestor, ...
//	skip the fault hook on a cached resolve    TestFileFaultHookOncePerAccess

// TestFileMatchesPathAccess holds File to the path API: every row drives
// the tree through a script of steps, and after each step a handle opened
// at the start (and kept warm by every earlier step) must answer exactly
// as a path read of the same path does.
func TestFileMatchesPathAccess(t *testing.T) {
	const p = "/a/b/f"
	type step struct {
		name string
		do   func(t *testing.T, fs *FS)
	}
	mustNil := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	mkdirs := step{"mkdir /a/b", func(t *testing.T, fs *FS) { mustNil(t, fs.MkdirAll("/a/b")) }}
	add := func(content string) step {
		return step{"add " + content, func(t *testing.T, fs *FS) { mustNil(t, fs.AddFile(p, content)) }}
	}
	remove := func(q string) step {
		return step{"remove " + q, func(t *testing.T, fs *FS) { mustNil(t, fs.RemoveAll(q)) }}
	}
	for _, row := range []struct {
		name  string
		path  string // defaults to p
		steps []step
	}{
		{name: "opened before the file exists", steps: []step{mkdirs, add("one")}},
		{name: "removed file", steps: []step{mkdirs, add("one"), remove(p)}},
		{name: "removed ancestor", steps: []step{mkdirs, add("one"), remove("/a")}},
		{name: "removed root", steps: []step{mkdirs, add("one"), remove("/")}},
		{name: "remove then re-create", steps: []step{mkdirs, add("one"), remove("/a"), mkdirs, add("two")}},
		{name: "directory created after open", path: "/a/b", steps: []step{mkdirs}},
		{name: "path through a file", path: "/a/b/f/g", steps: []step{mkdirs, add("one")}},
		{name: "static write replaces content", steps: []step{mkdirs, add("one"),
			{"write", func(t *testing.T, fs *FS) { mustNil(t, fs.WriteFile(p, "two")) }}}},
		{name: "unrelated churn", steps: []step{mkdirs, add("one"),
			{"churn", func(t *testing.T, fs *FS) {
				mustNil(t, fs.MkdirAll("/a/c/d"))
				mustNil(t, fs.AddFile("/a/c/d/x", "x"))
				mustNil(t, fs.RemoveAll("/a/c"))
			}}}},
	} {
		t.Run(row.name, func(t *testing.T) {
			q := row.path
			if q == "" {
				q = p
			}
			fs := New()
			f := fs.Open(q)
			check := func(after string) {
				t.Helper()
				got, gotErr := f.ReadAppend(nil)
				want, wantErr := fs.ReadFileAppend(q, nil)
				if string(got) != string(want) || errString(gotErr) != errString(wantErr) {
					t.Fatalf("after %s: File read = %q, %v; path read = %q, %v", after, got, gotErr, want, wantErr)
				}
			}
			check("open")
			for _, s := range row.steps {
				s.do(t, fs)
				check(s.name)
			}
		})
	}
}

// TestFileErrorsAreThePathErrors pins the error classes behind the rows
// above, so a handle and the path call cannot agree on a wrong answer.
func TestFileErrorsAreThePathErrors(t *testing.T) {
	fs := New()
	f := fs.Open("/d/f")
	if _, err := f.ReadAppend(nil); !errors.Is(err, ErrNotExist) {
		t.Fatalf("read of a missing file: %v, want ErrNotExist", err)
	}
	if err := f.Write("x"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("write of a missing file: %v, want ErrNotExist", err)
	}
	dir := fs.Open("/d")
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := dir.ReadAppend(nil); !errors.Is(err, ErrIsDir) {
		t.Fatalf("read of a directory: %v, want ErrIsDir", err)
	}
	if err := dir.Write("x"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("write of a directory: %v, want ErrIsDir", err)
	}
	if err := fs.AddDynamicAppend("/d/f", func(b []byte) []byte { return append(b, 'r') }, nil); err != nil {
		t.Fatal(err)
	}
	if got, err := f.ReadAppend(nil); err != nil || string(got) != "r" {
		t.Fatalf("read once added = %q, %v", got, err)
	}
	if err := f.Write("x"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write of a read-only file: %v, want ErrReadOnly", err)
	}
	if err := fs.RemoveAll("/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAppend(nil); !errors.Is(err, ErrNotExist) {
		t.Fatalf("read after removal: %v, want ErrNotExist", err)
	}
}

// TestFileWriteReachesWriteFunc: a write through a handle lands in the
// file's WriteFunc — the re-created file's, after a remove and re-create
// under the same path.
func TestFileWriteReachesWriteFunc(t *testing.T) {
	fs := New()
	var first, second []string
	if err := fs.AddDynamicAppend("/ctl", empty, func(s string) error { first = append(first, s); return nil }); err != nil {
		t.Fatal(err)
	}
	f := fs.Open("/ctl")
	if err := f.Write("a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.RemoveAll("/ctl"); err != nil {
		t.Fatal(err)
	}
	if err := fs.AddDynamicAppend("/ctl", empty, func(s string) error { second = append(second, s); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := f.Write("b"); err != nil {
		t.Fatal(err)
	}
	if len(first) != 1 || first[0] != "a" || len(second) != 1 || second[0] != "b" {
		t.Fatalf("writes landed as %v then %v, want [a] then [b]", first, second)
	}
}

// TestFileFaultHookOncePerAccess: the hook runs before every access, warm
// or not, with the clean path and the access's direction, and its error
// aborts the access.
func TestFileFaultHookOncePerAccess(t *testing.T) {
	fs := New()
	if err := fs.AddFile("/f", "v"); err != nil {
		t.Fatal(err)
	}
	var seen []string
	var fail error
	fs.SetFaultHook(func(op, path string) error {
		seen = append(seen, op+" "+path)
		return fail
	})
	f := fs.Open("//f")
	for i := 0; i < 3; i++ {
		if _, err := f.ReadAppend(nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Write("w"); err != nil {
		t.Fatal(err)
	}
	want := []string{"read /f", "read /f", "read /f", "write /f"}
	if len(seen) != len(want) {
		t.Fatalf("hook saw %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("hook saw %v, want %v", seen, want)
		}
	}
	fail = errors.New("boom")
	if _, err := f.ReadAppend(nil); err != fail {
		t.Fatalf("faulted read: %v, want the hook's error", err)
	}
	if err := f.Write("x"); err != fail {
		t.Fatalf("faulted write: %v, want the hook's error", err)
	}
	fs.SetFaultHook(nil)
	if got, err := f.ReadAppend(nil); err != nil || string(got) != "w" {
		t.Fatalf("after faults, read = %q, %v; want the unfaulted write's content", got, err)
	}
}

// TestFileReadAppendZeroAlloc: a warm handle on an append-rendered file
// reads into a buffer with room without touching the heap.
func TestFileReadAppendZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	fs := New()
	if err := fs.MkdirAll("/sys/fs/cgroup/vm/vcpu0"); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := fs.AddDynamicAppend("/sys/fs/cgroup/vm/vcpu0/cpu.stat", func(buf []byte) []byte {
		n++
		return append(buf, "usage_usec 42\n"...)
	}, nil); err != nil {
		t.Fatal(err)
	}
	f := fs.Open("/sys/fs/cgroup/vm/vcpu0/cpu.stat")
	buf := make([]byte, 0, 64)
	if allocs := testing.AllocsPerRun(100, func() {
		var err error
		if buf, err = f.ReadAppend(buf[:0]); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("warm ReadAppend allocates %.1f/op, want 0", allocs)
	}
	if n == 0 || string(buf) != "usage_usec 42\n" {
		t.Fatalf("renderer ran %d times, buffer %q", n, buf)
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
