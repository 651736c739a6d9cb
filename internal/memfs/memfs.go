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

// ReadFunc produces the current content of a dynamic file.
type ReadFunc func() string

// ReadAppendFunc renders the current content of a dynamic file by
// appending it to buf. Implementations must not retain buf. Files backed
// by a ReadAppendFunc can be read without heap allocation through
// ReadFileAppend — the property the simulated host's per-period
// pseudo-file reads (cpu.stat, cgroup.threads, /proc/<tid>/stat,
// scaling_cur_freq) rely on.
type ReadAppendFunc func(buf []byte) []byte

// WriteFunc consumes a write to a dynamic file. Returning an error makes
// the write fail, as the kernel does for malformed control-file writes.
type WriteFunc func(data string) error

type node struct {
	name     string
	dir      bool
	children map[string]*node
	// static content, used when read and readAppend are nil
	content    string
	read       ReadFunc
	readAppend ReadAppendFunc
	write      WriteFunc
}

// dynamic reports whether the node's reads run a callback.
func (n *node) dynamic() bool { return n.read != nil || n.readAppend != nil }

// FaultFunc inspects an access before it happens; a non-nil return
// aborts the operation with that error. op is "read" or "write". It lets
// a simulation inject the transient and persistent pseudo-file failures
// a real kernel produces when threads die or cgroups vanish mid-access.
type FaultFunc func(op, path string) error

// FS is a concurrency-safe in-memory file tree.
type FS struct {
	mu    sync.RWMutex
	root  *node
	fault FaultFunc
}

// SetFaultHook installs (or, with nil, removes) the fault hook consulted
// before every ReadFile and WriteFile.
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
	return &FS{root: &node{name: "/", dir: true, children: map[string]*node{}}}
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

// AddDynamic creates a file whose reads call read and whose writes call
// write. Either may be nil: a nil read yields the empty string, a nil
// write makes the file read-only.
func (fs *FS) AddDynamic(p string, read ReadFunc, write WriteFunc) error {
	return fs.addNode(p, &node{read: read, write: write})
}

// AddDynamicAppend creates a dynamic file backed by an append-style
// renderer: ReadFile wraps it into a string, ReadFileAppend uses it
// directly and stays allocation-free. A nil write makes the file
// read-only.
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
	return nil
}

// ReadFile returns the current content of the file at p.
func (fs *FS) ReadFile(p string) (string, error) {
	p = clean(p)
	if err := fs.checkFault("read", p); err != nil {
		return "", err
	}
	fs.mu.RLock()
	n, err := fs.lookupClean(p)
	if err != nil {
		fs.mu.RUnlock()
		return "", err
	}
	if n.dir {
		fs.mu.RUnlock()
		return "", fmt.Errorf("%w: %s", ErrIsDir, p)
	}
	read := n.read
	readAppend := n.readAppend
	content := n.content
	fs.mu.RUnlock()
	// Dynamic reads run outside the lock: the callback may consult
	// simulation state that itself mutates the filesystem.
	if read != nil {
		return read(), nil
	}
	if readAppend != nil {
		return string(readAppend(nil)), nil
	}
	return content, nil
}

// ReadFileAppend appends the current content of the file at p to buf and
// returns the extended slice. For files created with AddDynamicAppend
// the render happens directly into buf, so a read with sufficient
// capacity performs no heap allocation; other files fall back to the
// string content. Fault hooks fire exactly as for ReadFile.
func (fs *FS) ReadFileAppend(p string, buf []byte) ([]byte, error) {
	p = clean(p)
	if err := fs.checkFault("read", p); err != nil {
		return buf, err
	}
	fs.mu.RLock()
	n, err := fs.lookupClean(p)
	if err != nil {
		fs.mu.RUnlock()
		return buf, err
	}
	if n.dir {
		fs.mu.RUnlock()
		return buf, fmt.Errorf("%w: %s", ErrIsDir, p)
	}
	read := n.read
	readAppend := n.readAppend
	content := n.content
	fs.mu.RUnlock()
	if readAppend != nil {
		return readAppend(buf), nil
	}
	if read != nil {
		return append(buf, read()...), nil
	}
	return append(buf, content...), nil
}

// WriteFile writes data to the file at p.
func (fs *FS) WriteFile(p, data string) error {
	p = clean(p)
	if err := fs.checkFault("write", p); err != nil {
		return err
	}
	fs.mu.Lock()
	n, err := fs.lookupClean(p)
	if err != nil {
		fs.mu.Unlock()
		return err
	}
	if n.dir {
		fs.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrIsDir, p)
	}
	if n.dynamic() {
		w := n.write
		fs.mu.Unlock()
		if w == nil {
			return fmt.Errorf("%w: %s", ErrReadOnly, p)
		}
		return w(data)
	}
	if n.write != nil {
		w := n.write
		fs.mu.Unlock()
		return w(data)
	}
	n.content = data
	fs.mu.Unlock()
	return nil
}

// RemoveAll deletes the subtree rooted at p. Removing a path that does
// not exist is not an error, matching os.RemoveAll.
func (fs *FS) RemoveAll(p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	p = clean(p)
	if p == "/" {
		fs.root.children = map[string]*node{}
		return nil
	}
	parent, err := fs.lookup(path.Dir(p))
	if err != nil {
		return nil
	}
	delete(parent.children, path.Base(p))
	return nil
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
