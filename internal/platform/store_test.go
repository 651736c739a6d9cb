package platform

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFileStoreRoundTrip(t *testing.T) {
	st := FileStore{Path: filepath.Join(t.TempDir(), "ckpt.json")}
	if _, err := st.Load(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Load before Save = %v, want ErrNoCheckpoint", err)
	}
	if err := st.Save([]byte(`{"version":2}`)); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load()
	if err != nil || string(got) != `{"version":2}` {
		t.Fatalf("Load = %q, %v", got, err)
	}
	// Overwrite replaces atomically (no temp file left behind).
	if err := st.Save([]byte(`{"version":2,"step":9}`)); err != nil {
		t.Fatal(err)
	}
	got, err = st.Load()
	if err != nil || !strings.Contains(string(got), `"step":9`) {
		t.Fatalf("Load after overwrite = %q, %v", got, err)
	}
	if (FileStore{}).Save(nil) == nil {
		t.Fatal("pathless store accepted a save")
	}
}

// TestFileStoreFailedWriteKeepsPreviousCheckpoint: a save whose temp file
// opens but cannot be written (here it is a link to /dev/full, so every
// write is ENOSPC) fails, removes the temp it could not finish, and leaves
// the previous checkpoint loadable — the atomicity crash recovery depends
// on. Save used to be os.WriteFile + rename with neither Sync nor cleanup.
func TestFileStoreFailedWriteKeepsPreviousCheckpoint(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail a write with")
	}
	st := FileStore{Path: filepath.Join(t.TempDir(), "ckpt.json")}
	if err := st.Save([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("/dev/full", st.Path+".tmp"); err != nil {
		t.Fatal(err)
	}
	if err := st.Save([]byte("second")); err == nil {
		t.Fatal("a save that could not write its temp file succeeded")
	}
	if _, err := os.Lstat(st.Path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed save left its temp behind (lstat: %v)", err)
	}
	if got, err := st.Load(); err != nil || string(got) != "first" {
		t.Fatalf("previous checkpoint damaged: %q, %v", got, err)
	}
	if err := st.Save([]byte("third")); err != nil {
		t.Fatalf("save after the fault cleared: %v", err)
	}
	if got, _ := st.Load(); string(got) != "third" {
		t.Fatalf("Load after recovery = %q", got)
	}
}
