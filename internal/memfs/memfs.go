// Package memfs implements a small in-memory file tree used as the backing
// store for the simulated cgroup, proc and sys filesystems.
//
// Files may hold static content or be backed by callbacks so that reads
// always observe the live state of the simulation (as reads of real kernel
// pseudo-files do). Paths use forward slashes and are rooted at "/".
package memfs

import (
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Common errors returned by the filesystem, mirroring the ones a real
// kernel pseudo-filesystem would produce.
var (
	ErrNotExist = errors.New("memfs: file does not exist")
	ErrExist    = errors.New("memfs: file already exists")
	ErrIsDir    = errors.New("memfs: is a directory")
	ErrNotDir   = errors.New("memfs: not a directory")
	ErrReadOnly = errors.New("memfs: file is read-only")
)

// ReadAppendFunc renders the current content of a dynamic file by
// appending it to buf. Implementations must not retain buf. Files backed
// by a ReadAppendFunc can be read without heap allocation through
// File.ReadAppend (or ReadFileAppend) — the property the simulated
// host's per-period pseudo-file reads (cpu.stat, cgroup.threads,
// /proc/<tid>/stat, scaling_cur_freq) rely on.
type ReadAppendFunc func(buf []byte) []byte

// WriteFunc consumes a write to a dynamic file. Returning an error makes
// the write fail, as the kernel does for malformed control-file writes.
type WriteFunc func(data string) error

type node struct {
	name string
	dir  bool
	// gone marks a node RemoveAll detached from the tree: a File that
	// resolved to it must walk again.
	gone     bool
	children map[string]*node
	// static content, used when readAppend is nil
	content    string
	readAppend ReadAppendFunc
	write      WriteFunc
}

// FaultFunc inspects an access before it happens; a non-nil return
// aborts the operation with that error. op is "read" or "write". It lets
// a simulation inject the transient and persistent pseudo-file failures
// a real kernel produces when threads die or cgroups vanish mid-access.
// It runs outside the FS lock, possibly from several goroutines at once.
// A read resolves its node before its hook runs, so a hook must not
// change the tree it guards.
type FaultFunc func(op, path string) error

// FS is a concurrency-safe in-memory file tree.
type FS struct {
	mu    sync.RWMutex
	root  *node
	fault FaultFunc
	// gen counts changes to the tree's shape (a directory or file added,
	// a subtree removed); it starts at 1. A File's miss is good while gen
	// has not moved since the File made it.
	gen uint64
	// walks counts the path walks of File resolutions; only the tests
	// read it.
	walks atomic.Uint64
}

// SetFaultHook installs (or, with nil, removes) the fault hook consulted
// before every read and write.
func (fs *FS) SetFaultHook(fn FaultFunc) {
	fs.mu.Lock()
	fs.fault = fn
	fs.mu.Unlock()
}

// checkFault runs the fault hook for one access to the clean path cp.
func (fs *FS) checkFault(op, cp string) error {
	fs.mu.RLock()
	fn := fs.fault
	fs.mu.RUnlock()
	if fn == nil {
		return nil
	}
	return fn(op, cp)
}

// New returns an empty filesystem containing only the root directory.
func New() *FS {
	return &FS{root: &node{name: "/", dir: true, children: map[string]*node{}}, gen: 1}
}

// clean normalises p to an absolute slash-separated path: path.Clean of
// "/"+p. The paths the simulated host reads every period are built clean,
// so one scan that meets no empty, "." or ".." element and no trailing
// slash returns p itself; anything else goes to path.Clean.
func clean(p string) string {
	if p == "" {
		return "/"
	}
	if p[0] != '/' {
		return path.Clean("/" + p)
	}
	// start is the index after the last slash seen: where the current
	// element begins.
	start := 1
	for i := 1; i <= len(p); i++ {
		if i < len(p) && p[i] != '/' {
			continue
		}
		if el := p[start:i]; (el == "" && len(p) > 1) || el == "." || el == ".." {
			return path.Clean(p)
		}
		start = i + 1
	}
	return p
}

// split returns the path elements of p, excluding the root.
func split(p string) []string {
	p = clean(p)
	if p == "/" {
		return nil
	}
	return strings.Split(strings.TrimPrefix(p, "/"), "/")
}

// lookup finds the node at p.
func (fs *FS) lookup(p string) (*node, error) { return fs.lookupClean(clean(p)) }

// lookupClean walks the tree along the clean path cp segment by segment
// without splitting it into a fresh slice, so reads on the hot monitor
// path allocate nothing.
func (fs *FS) lookupClean(cp string) (*node, error) {
	cur := fs.root
	for i := 1; i < len(cp); {
		var el string
		if j := strings.IndexByte(cp[i:], '/'); j >= 0 {
			el = cp[i : i+j]
			i += j + 1
		} else {
			el = cp[i:]
			i = len(cp)
		}
		if !cur.dir {
			return nil, ErrNotDir
		}
		next, ok := cur.children[el]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNotExist, cp)
		}
		cur = next
	}
	return cur, nil
}

// Mkdir creates a directory. Parent directories must already exist.
func (fs *FS) Mkdir(p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.mkdirLocked(p)
}

func (fs *FS) mkdirLocked(p string) error {
	p = clean(p)
	if p == "/" {
		return nil
	}
	parent, err := fs.lookup(path.Dir(p))
	if err != nil {
		return err
	}
	if !parent.dir {
		return ErrNotDir
	}
	name := path.Base(p)
	if _, ok := parent.children[name]; ok {
		return fmt.Errorf("%w: %s", ErrExist, p)
	}
	parent.children[name] = &node{name: name, dir: true, children: map[string]*node{}}
	fs.gen++
	return nil
}

// MkdirAll creates a directory and any missing parents.
func (fs *FS) MkdirAll(p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	els := split(p)
	cur := "/"
	for _, el := range els {
		cur = path.Join(cur, el)
		if n, err := fs.lookup(cur); err == nil {
			if !n.dir {
				return ErrNotDir
			}
			continue
		}
		if err := fs.mkdirLocked(cur); err != nil {
			return err
		}
	}
	return nil
}

// AddFile creates a static file with the given initial content.
// Writes replace the content.
func (fs *FS) AddFile(p, content string) error {
	return fs.addNode(p, &node{content: content})
}

// AddDynamicAppend creates a dynamic file backed by an append-style
// renderer: ReadFile wraps it into a string, File.ReadAppend and
// ReadFileAppend use it directly and stay allocation-free. A nil write
// makes the file read-only.
func (fs *FS) AddDynamicAppend(p string, read ReadAppendFunc, write WriteFunc) error {
	if read == nil {
		return fmt.Errorf("memfs: nil append reader for %s", p)
	}
	return fs.addNode(p, &node{readAppend: read, write: write})
}

func (fs *FS) addNode(p string, n *node) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	p = clean(p)
	parent, err := fs.lookup(path.Dir(p))
	if err != nil {
		return err
	}
	if !parent.dir {
		return ErrNotDir
	}
	name := path.Base(p)
	if _, ok := parent.children[name]; ok {
		return fmt.Errorf("%w: %s", ErrExist, p)
	}
	n.name = name
	parent.children[name] = n
	fs.gen++
	return nil
}

// File is a handle on one path of an FS: the path is cleaned once, at
// Open, and resolved on first use; the node found, or the miss, is kept.
// A node found stays the answer until RemoveAll detaches it: adding to
// the tree cannot change what an existing path names, and a removal marks
// every node it detaches. A miss is walked again whenever the tree's
// shape has changed since (FS.gen moved), removals included: a miss
// through a file changes error class when the file goes. So a file read
// every period costs one flag check instead of a path scan and one map
// lookup per element, however the tree changes elsewhere. The check is
// "verify, don't track": nothing records which handles a change affects.
// Reads and writes through a File behave exactly as the path calls on the
// same path — same errors, same fault hook, which sees the clean path
// once per access.
//
// The path need not exist when the File is opened. A File may be used
// from one goroutine at a time; the FS under it stays safe for
// concurrent use.
type File struct {
	fs   *FS
	path string // clean
	gen  uint64 // fs.gen at the last walk; 0: never resolved
	node *node  // the node resolved then; nil on a miss
	err  error  // the miss's error
}

// Open returns a handle on the file at p, which need not exist yet.
func (fs *FS) Open(p string) *File { return &File{fs: fs, path: clean(p)} }

// resolveLocked returns the node at f.path, walking the tree only when
// the node resolved last is gone, or after a miss when the tree's shape
// changed since. The caller holds fs.mu.
func (f *File) resolveLocked() (*node, error) {
	if n := f.node; n != nil && !n.gone {
		return n, nil
	}
	if f.node != nil || f.gen != f.fs.gen {
		f.fs.walks.Add(1)
		f.node, f.err = f.fs.lookupClean(f.path)
		f.gen = f.fs.gen
	}
	return f.node, f.err
}

// ReadAppend appends the current content of the file to buf and returns
// the extended slice. For files created with AddDynamicAppend the render
// happens directly into buf, so a read with sufficient capacity performs
// no heap allocation; static files append their content.
//
// A read takes the FS lock once: under it, the hook is read and the node
// resolved. The hook then runs first, outside the lock, on the clean path,
// and its error wins over the resolution's.
func (f *File) ReadAppend(buf []byte) ([]byte, error) {
	f.fs.mu.RLock()
	fault := f.fs.fault
	n, err := f.resolveLocked()
	var (
		readAppend ReadAppendFunc
		content    string
	)
	if err == nil && n.dir {
		err = fmt.Errorf("%w: %s", ErrIsDir, f.path)
	} else if err == nil {
		readAppend, content = n.readAppend, n.content
	}
	f.fs.mu.RUnlock()
	if fault != nil {
		if ferr := fault("read", f.path); ferr != nil {
			return buf, ferr
		}
	}
	if err != nil {
		return buf, err
	}
	// Dynamic reads run outside the lock: the callback may consult
	// simulation state that itself mutates the filesystem.
	if readAppend != nil {
		return readAppend(buf), nil
	}
	return append(buf, content...), nil
}

// Write writes data to the file: a dynamic file passes it to its
// WriteFunc, a static one replaces its content.
func (f *File) Write(data string) error {
	if err := f.fs.checkFault("write", f.path); err != nil {
		return err
	}
	f.fs.mu.Lock()
	n, err := f.resolveLocked()
	if err != nil {
		f.fs.mu.Unlock()
		return err
	}
	if n.dir {
		f.fs.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrIsDir, f.path)
	}
	if w := n.write; w != nil || n.readAppend != nil {
		f.fs.mu.Unlock()
		if w == nil {
			return fmt.Errorf("%w: %s", ErrReadOnly, f.path)
		}
		return w(data)
	}
	n.content = data
	f.fs.mu.Unlock()
	return nil
}

// ReadFile returns the current content of the file at p.
func (fs *FS) ReadFile(p string) (string, error) {
	content, err := fs.ReadFileAppend(p, nil)
	if err != nil {
		return "", err
	}
	return string(content), nil
}

// ReadFileAppend is File.ReadAppend on a one-use handle: it appends the
// current content of the file at p to buf. A caller that reads the same
// path repeatedly should Open it once instead and skip the path walk.
func (fs *FS) ReadFileAppend(p string, buf []byte) ([]byte, error) {
	f := File{fs: fs, path: clean(p)}
	return f.ReadAppend(buf)
}

// WriteFile writes data to the file at p (see File.Write).
func (fs *FS) WriteFile(p, data string) error {
	f := File{fs: fs, path: clean(p)}
	return f.Write(data)
}

// RemoveAll deletes the subtree rooted at p, marking every node in it
// gone. Removing a path that does not exist is not an error, matching
// os.RemoveAll.
func (fs *FS) RemoveAll(p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	p = clean(p)
	fs.gen++
	if p == "/" {
		for _, n := range fs.root.children {
			n.markGone()
		}
		fs.root.children = map[string]*node{}
		return nil
	}
	parent, err := fs.lookup(path.Dir(p))
	if err != nil {
		return nil
	}
	if n, ok := parent.children[path.Base(p)]; ok {
		n.markGone()
		delete(parent.children, path.Base(p))
	}
	return nil
}

// markGone marks n and everything under it as detached from the tree.
func (n *node) markGone() {
	n.gone = true
	for _, c := range n.children {
		c.markGone()
	}
}

// ReadDir lists the names in the directory at p, sorted.
func (fs *FS) ReadDir(p string) ([]string, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookup(p)
	if err != nil {
		return nil, err
	}
	if !n.dir {
		return nil, fmt.Errorf("%w: %s", ErrNotDir, p)
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// IsDir reports whether p exists and is a directory.
func (fs *FS) IsDir(p string) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.lookup(p)
	return err == nil && n.dir
}
