package memfs

import (
	"errors"
	"fmt"
	"math/rand"
	"path"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestMkdirAndReadDir(t *testing.T) {
	fs := New()
	if err := fs.Mkdir("/a"); err != nil {
		t.Fatalf("Mkdir /a: %v", err)
	}
	if err := fs.Mkdir("/a/b"); err != nil {
		t.Fatalf("Mkdir /a/b: %v", err)
	}
	names, err := fs.ReadDir("/a")
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(names) != 1 || names[0] != "b" {
		t.Fatalf("ReadDir = %v, want [b]", names)
	}
}

func TestMkdirMissingParent(t *testing.T) {
	fs := New()
	if err := fs.Mkdir("/a/b"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Mkdir /a/b with no /a: err = %v, want ErrNotExist", err)
	}
}

func TestMkdirAll(t *testing.T) {
	fs := New()
	if err := fs.MkdirAll("/x/y/z"); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	if !fs.IsDir("/x/y/z") {
		t.Fatal("IsDir(/x/y/z) = false")
	}
	// Idempotent.
	if err := fs.MkdirAll("/x/y/z"); err != nil {
		t.Fatalf("MkdirAll again: %v", err)
	}
}

func TestMkdirDuplicate(t *testing.T) {
	fs := New()
	if err := fs.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/a"); !errors.Is(err, ErrExist) {
		t.Fatalf("duplicate Mkdir: err = %v, want ErrExist", err)
	}
}

func TestStaticFileRoundTrip(t *testing.T) {
	fs := New()
	if err := fs.AddFile("/f", "hello"); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/f")
	if err != nil || got != "hello" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	if err := fs.WriteFile("/f", "world"); err != nil {
		t.Fatal(err)
	}
	got, _ = fs.ReadFile("/f")
	if got != "world" {
		t.Fatalf("after write, ReadFile = %q", got)
	}
}

func TestDynamicFile(t *testing.T) {
	fs := New()
	val := 7
	err := fs.AddDynamic("/dyn",
		func() string { return fmt.Sprint(val) },
		func(s string) error {
			if s == "bad" {
				return errors.New("invalid")
			}
			val = len(s)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := fs.ReadFile("/dyn"); got != "7" {
		t.Fatalf("ReadFile = %q, want 7", got)
	}
	if err := fs.WriteFile("/dyn", "xxx"); err != nil {
		t.Fatal(err)
	}
	if got, _ := fs.ReadFile("/dyn"); got != "3" {
		t.Fatalf("after write, ReadFile = %q, want 3", got)
	}
	if err := fs.WriteFile("/dyn", "bad"); err == nil {
		t.Fatal("write of rejected value succeeded")
	}
}

func TestDynamicReadOnly(t *testing.T) {
	fs := New()
	if err := fs.AddDynamic("/ro", func() string { return "x" }, nil); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/ro", "y"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write to read-only: err = %v, want ErrReadOnly", err)
	}
}

func TestReadDirectoryFails(t *testing.T) {
	fs := New()
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("/d"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("ReadFile on dir: err = %v, want ErrIsDir", err)
	}
}

func TestRemoveAll(t *testing.T) {
	fs := New()
	if err := fs.MkdirAll("/d/e/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.AddFile("/d/e/f/g", "x"); err != nil {
		t.Fatal(err)
	}
	if err := fs.RemoveAll("/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("/d"); !errors.Is(err, ErrNotExist) {
		t.Fatal("subtree still exists after RemoveAll")
	}
	// Removing a missing path is not an error.
	if err := fs.RemoveAll("/nope"); err != nil {
		t.Fatal(err)
	}
}

func TestCleanPathEquivalence(t *testing.T) {
	fs := New()
	if err := fs.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.AddFile("/a/../a/f", "v"); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("a/f") // relative spelling
	if err != nil || got != "v" {
		t.Fatalf("ReadFile(a/f) = %q, %v", got, err)
	}
}

// Property: after any sequence of MkdirAll+AddFile, every added file is
// readable with the content last written.
func TestQuickFileContents(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		fs := New()
		want := map[string]string{}
		for i := 0; i < int(n%32)+1; i++ {
			depth := rng.Intn(3) + 1
			parts := make([]string, depth)
			for j := range parts {
				parts[j] = fmt.Sprintf("d%d", rng.Intn(4))
			}
			dir := "/" + strings.Join(parts, "/")
			if err := fs.MkdirAll(dir); err != nil {
				return false
			}
			file := dir + fmt.Sprintf("/f%d", rng.Intn(4))
			content := fmt.Sprintf("c%d", rng.Int())
			if _, ok := want[file]; ok {
				if err := fs.WriteFile(file, content); err != nil {
					return false
				}
			} else if err := fs.AddFile(file, content); err != nil {
				return false
			}
			want[file] = content
		}
		for p, c := range want {
			got, err := fs.ReadFile(p)
			if err != nil || got != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	fs := New()
	if err := fs.AddFile("/f", "0"); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 200; j++ {
				_ = fs.WriteFile("/f", fmt.Sprint(i))
				_, _ = fs.ReadFile("/f")
				_ = fs.MkdirAll(fmt.Sprintf("/g%d/h%d", i, j%5))
				_, _ = fs.ReadDir("/")
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		<-done
	}
}

func TestErrorPaths(t *testing.T) {
	fs := New()
	if err := fs.AddFile("/no/parent", "x"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("AddFile without parent: %v", err)
	}
	if err := fs.AddFile("/f", "x"); err != nil {
		t.Fatal(err)
	}
	if err := fs.AddFile("/f", "y"); !errors.Is(err, ErrExist) {
		t.Fatalf("duplicate AddFile: %v", err)
	}
	if err := fs.Mkdir("/f/sub"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("Mkdir under file: %v", err)
	}
	if err := fs.MkdirAll("/f/sub"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("MkdirAll through file: %v", err)
	}
	if _, err := fs.ReadFile("/missing"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("ReadFile missing: %v", err)
	}
	if err := fs.WriteFile("/missing", "x"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("WriteFile missing: %v", err)
	}
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/d", "x"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("WriteFile on dir: %v", err)
	}
	if _, err := fs.ReadDir("/f"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("ReadDir on file: %v", err)
	}
	if _, err := fs.ReadDir("/nope"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("ReadDir missing: %v", err)
	}
}

func TestRemoveAllRoot(t *testing.T) {
	fs := New()
	if err := fs.MkdirAll("/a/b"); err != nil {
		t.Fatal(err)
	}
	if err := fs.RemoveAll("/"); err != nil {
		t.Fatal(err)
	}
	names, err := fs.ReadDir("/")
	if err != nil || len(names) != 0 {
		t.Fatalf("root not emptied: %v, %v", names, err)
	}
}

func TestDynamicWriteOnlyFile(t *testing.T) {
	fs := New()
	var got string
	// nil read with a write callback: write-only control file.
	if err := fs.AddDynamic("/wo", nil, func(s string) error { got = s; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/wo", "ping"); err != nil {
		t.Fatal(err)
	}
	if got != "ping" {
		t.Fatalf("write callback saw %q", got)
	}
	if content, err := fs.ReadFile("/wo"); err != nil || content != "" {
		t.Fatalf("write-only read = %q, %v", content, err)
	}
}

// clean is path.Clean of "/"+p; a path that is clean already comes back as
// the very string passed in, not a copy.
func TestClean(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"", "/"},
		{"/", "/"},
		{"/a", "/a"},
		{"/sys/fs/cgroup/machine.slice/vm0.scope/vcpu1/cpu.stat", "/sys/fs/cgroup/machine.slice/vm0.scope/vcpu1/cpu.stat"},
		{"/a/..b/.c/d..", "/a/..b/.c/d.."},
		{"/...", "/..."},
		{"a/b", "/a/b"},
		{"//", "/"},
		{"//a", "/a"},
		{"/a/", "/a"},
		{"/a//b", "/a/b"},
		{"/.", "/"},
		{"/..", "/"},
		{"/a/.", "/a"},
		{"/a/./b", "/a/b"},
		{"/a/../b", "/b"},
		{"/a/b/..", "/a"},
		{"../a", "/a"},
		{".", "/"},
	} {
		got := clean(tc.in)
		if got != tc.want || got != path.Clean("/"+tc.in) {
			t.Errorf("clean(%q) = %q, want %q (path.Clean gives %q)", tc.in, got, tc.want, path.Clean("/"+tc.in))
		}
		if tc.in == tc.want && unsafe.StringData(got) != unsafe.StringData(tc.in) {
			t.Errorf("clean(%q) copied a path that was clean", tc.in)
		}
	}
	if n := testing.AllocsPerRun(100, func() { clean("/proc/4211/task/4211/stat") }); n != 0 {
		t.Errorf("clean of a clean path allocates %.0f times", n)
	}
}

func FuzzCleanMatchesPathClean(f *testing.F) {
	for _, s := range []string{"", "/", "/a/b", "a//b/", "/./a/../..", "/a/.../b", "//", "/a/.", "..", "/\x00/./"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, p string) {
		if got, want := clean(p), path.Clean("/"+p); got != want {
			t.Fatalf("clean(%q) = %q, path.Clean gives %q", p, got, want)
		}
	})
}
